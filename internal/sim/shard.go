package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// The sharded engine: a parallel simulator for very large rings that is
// provably schedule-equivalent to the sequential one.
//
// The ring is partitioned into contiguous arcs, one worker goroutine
// per arc. Execution proceeds in epochs separated by single-threaded
// barriers. The global send sequence counter — the same per-send total
// order the canonical scheduler and the PR 3/PR 4 determinism proofs
// rest on — defines an epoch boundary: every message whose sequence
// number is at or below the boundary is FROZEN. During an epoch each
// arc delivers only frozen messages on its own channels, picked by its
// own scheduler instance; messages sent during the epoch stay unfrozen
// (invisible to every scheduler) until the next barrier. Intra-arc
// sends enqueue immediately under provisional sequence numbers
// (boundary + arc-local send index); cross-arc sends are buffered. At
// the barrier a single thread renumbers all of the epoch's sends
// arc-major — arc a's j-th send becomes boundary + Σ_{b<a} sends_b + j,
// exactly the numbering a sequential engine produces by executing the
// arcs in index order — applies the buffered border sends, merges the
// event stream, and re-freezes everything.
//
// Determinism and equivalence: the epoch schedule is a function of
// (topology, machines, shard count, scheduler factory) only — workers
// touch disjoint state (an arc owns its nodes' machines, queues, and
// frozen set) and every cross-arc effect happens at the deterministic
// barrier. ShardReferenceRun drives the retained sequential engine
// through the identical epoch schedule; the shard differential tests
// assert byte-identical events and Results between the two for every
// stock scheduler × seed × algorithm × shard count. Runs that violate
// the model (post-termination sends, machine faults) abort
// deterministically on both engines, but the sharded engine detects
// cross-arc violations at the barrier rather than mid-epoch, so the
// partial Result — and in corner cases the error class — of an aborted
// run may differ; violation-free runs, which are all a correct machine
// ever produces and everything the differential suite exercises, are
// byte-identical.

// MkScheduler builds one scheduler instance per arc. Factories must be
// deterministic in the arc index: stateful schedulers (Random,
// RoundRobin) need a fresh instance per arc, and the sequential
// reference uses the same factory so decisions match.
type MkScheduler func(arc int) Scheduler

// StockSharded mirrors Stock for the sharded engine: one factory per
// stock scheduler name. Seeded schedulers fold the arc index into the
// seed so arcs do not mirror each other's randomness.
func StockSharded(seed int64) map[string]MkScheduler {
	arcSeed := func(arc int) int64 { return seed + int64(arc)*1_000_003 }
	return map[string]MkScheduler{
		"canonical":  func(int) Scheduler { return Canonical{} },
		"newest":     func(int) Scheduler { return Newest{} },
		"heaviest":   func(int) Scheduler { return Heaviest{} },
		"random":     func(arc int) Scheduler { return NewRandom(arcSeed(arc)) },
		"roundrobin": func(int) Scheduler { return NewRoundRobin() },
		"ccw-first":  func(int) Scheduler { return DirBiased{Prefer: pulse.CCW} },
		"cw-first":   func(int) Scheduler { return DirBiased{Prefer: pulse.CW} },
		"flaky":      func(arc int) Scheduler { return NewLaggy(arcSeed(arc)) },
		"hashdelay":  func(arc int) Scheduler { return NewHashDelay(arcSeed(arc)) },
	}
}

// ShardObserver receives every simulator event. Events are delivered at
// epoch barriers in merged (arc-major) order — the order the sequential
// reference produces them in — so simulator-wide counters read through
// s are epoch-granular, not event-granular. Returning an error aborts
// the run.
type ShardObserver[M any] interface {
	OnEvent(e *Event, s *Sharded[M]) error
}

// ShardObserverFunc adapts a function to the ShardObserver interface.
type ShardObserverFunc[M any] func(e *Event, s *Sharded[M]) error

// OnEvent implements ShardObserver.
func (f ShardObserverFunc[M]) OnEvent(e *Event, s *Sharded[M]) error { return f(e, s) }

// ShardOption configures a Sharded simulation.
type ShardOption[M any] func(*Sharded[M])

// WithShardObserver attaches an observer; multiple observers run in order.
func WithShardObserver[M any](o ShardObserver[M]) ShardOption[M] {
	return func(s *Sharded[M]) { s.obs = append(s.obs, o) }
}

// Sharded is a single-use parallel simulation of one ring execution.
// Create with NewSharded or NewShardedFlat, then call Run once.
type Sharded[M any] struct {
	topo   ring.Topology
	bounds []int // arc a owns nodes [bounds[a], bounds[a+1])

	// The machine bank, as in Sim: exactly one of machines and flat is
	// non-nil. Arcs only run handlers of their own nodes, so a flat
	// bank's slices are accessed at disjoint indices across workers.
	machines []node.Machine[M]
	flat     node.FlatMachine[M]
	obs      []ShardObserver[M]

	queues     []fifo[M] // per channel; only the owner arc touches a queue mid-epoch
	inited     []bool
	terminated []bool
	ordTerm    []int

	chanDir []pulse.Direction
	outDir  []pulse.Direction
	peerCh  []int // channel id reached by sends out of (node, port)

	arcs []shardArc[M]

	// Global totals; written only by the coordinator at barriers.
	seq, step uint64
	sent      uint64
	delivered uint64
	sentCW    uint64
	sentCCW   uint64
	failed    error

	// Batch fast path (WithShardBatching; pulse machines only), resolved
	// exactly as on Sim: one of bms and fbm is non-nil when batch is set.
	// runs/coalesced fold the arcs' per-epoch counters at barriers.
	batch     bool
	bms       []node.BatchMachine
	fbm       node.FlatBatchMachine
	runs      uint64
	coalesced uint64

	sendOff []uint64 // scratch: per-arc send prefix of the current barrier
	stepOff []uint64 // scratch: per-arc step prefix of the current barrier

	ran       bool
	initEpoch bool
	starts    []chan struct{}
	wg        sync.WaitGroup

	// Progress counters for concurrent readers (cmd/ringsim's progress
	// reporter polls them from another goroutine); everything else on
	// this struct is coordinator-private.
	progDelivered atomic.Uint64
	progSent      atomic.Uint64
	progEpoch     atomic.Uint64
	progRuns      atomic.Uint64
	progCoalesced atomic.Uint64
}

// borderSend is one cross-arc send — on the batch path, one cross-arc
// run of cnt pulses — buffered until the barrier.
type borderSend[M any] struct {
	idx  uint64 // 1-based send index of the (first) pulse within the arc's epoch
	cnt  uint64 // pulses in the run (1 on the non-batched path)
	ch   int32  // destination channel
	from int32  // sending node (for the post-termination error message)
	dir  pulse.Direction
	msg  M
}

// shardArc is one worker's share of the ring: nodes [lo, hi) and their
// 2(hi-lo) incoming channels. All fields are owned by the worker during
// an epoch and by the coordinator during a barrier.
type shardArc[M any] struct {
	s   *Sharded[M]
	idx int
	lo  int
	hi  int

	sched Scheduler
	view  arcView[M]
	em    arcEmitter[M]

	// frozen is the arc-local deliverable set: bit (c - 2*lo) is set iff
	// owned channel c's head is frozen (seq <= boundary) and its
	// receiver is initialized, unterminated, and Ready. heap/mark are
	// the arc's lazy oldest-frozen min-heap, exactly like Sim.oldest.
	frozen      bitset
	frozenCount int
	heap        []heapEntry
	mark        []uint64

	boundary   uint64 // global seq at the last barrier
	stepBase   uint64 // global step at the last barrier
	localSteps uint64 // handler invocations this epoch
	sendIdx    uint64 // sends this epoch (provisional seq = boundary + sendIdx)

	border   []borderSend[M]
	dirty    []int32  // owned channels that gained enqueues this epoch
	dirtyAt  []uint32 // per owned channel: epochTag when last marked dirty
	epochTag uint32

	events []Event // this epoch's events (only when observers attached)
	terms  []int   // nodes that terminated this epoch, in local order

	runEm runEmitter // batch path: the arc's reusable counted-run emitter

	sentE      uint64
	sentCWE    uint64
	sentCCWE   uint64
	deliverE   uint64
	runsE      uint64 // batch transitions this epoch
	coalescedE uint64 // of those, multi-pulse transitions

	err error // first failure in this arc's epoch
}

type arcEmitter[M any] struct{ buf []pendingSend[M] }

// Send implements node.Emitter.
func (e *arcEmitter[M]) Send(p pulse.Port, m M) {
	if !p.Valid() {
		panic(fmt.Sprintf("sim: send on invalid port %d", p))
	}
	e.buf = append(e.buf, pendingSend[M]{port: p, msg: m})
}

// arcView is the scheduler's window into one arc during an epoch: the
// frozen deliverable set of the arc's own channels. QueueLen counts
// frozen messages only — sends of the running epoch are invisible to
// every scheduler on both engines, which is what makes the cross-arc
// merge order-independent. Step is stepBase + the arc's own handler
// count this epoch (global step numbers are not known until the
// barrier; no stock scheduler consults Step).
type arcView[M any] struct {
	a       *shardArc[M]
	scratch []int
}

func (v *arcView[M]) Deliverable() []int {
	v.scratch = v.a.frozen.appendIntoOff(v.scratch[:0], 2*v.a.lo)
	return v.scratch
}
func (v *arcView[M]) HeadSeq(c int) uint64 { return v.a.s.queues[c].front().seq }
func (v *arcView[M]) QueueLen(c int) int {
	if v.a.s.batch {
		// Entries are counted runs: the frozen pulse total is the
		// scheduler-visible length, matching Sim.QueueLen's pulse count.
		return int(frozenPulses(&v.a.s.queues[c], v.a.boundary))
	}
	return frozenLen(&v.a.s.queues[c], v.a.boundary)
}
func (v *arcView[M]) Direction(c int) pulse.Direction {
	return v.a.s.chanDir[c]
}
func (v *arcView[M]) Step() uint64 { return v.a.stepBase + v.a.localSteps }

// OldestDeliverable implements OldestView over the arc's frozen heap;
// sequence numbers are unique, so the answer equals the min-HeadSeq
// scan the sequential reference's arc view falls back to.
func (v *arcView[M]) OldestDeliverable() (int, bool) { return v.a.oldestFrozen() }

// appendIntoOff is bitset.appendInto with every index shifted by off:
// arc-local bit i corresponds to global channel off + i.
func (b bitset) appendIntoOff(dst []int, off int) []int {
	for wi, w := range b {
		base := wi<<6 + off
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// newSharded builds the common core; the caller attaches the bank.
func newSharded[M any](t ring.Topology, shards int, mk MkScheduler) (*Sharded[M], error) {
	if mk == nil {
		return nil, errors.New("sim: nil scheduler factory")
	}
	n := t.N()
	if err := checkRingSize(n); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("sim: shard count %d must be at least 1", shards)
	}
	if shards > n {
		shards = n // every arc holds at least one node
	}
	s := &Sharded[M]{
		topo:       t,
		queues:     make([]fifo[M], 2*n),
		inited:     make([]bool, n),
		terminated: make([]bool, n),
		chanDir:    make([]pulse.Direction, 2*n),
		outDir:     make([]pulse.Direction, 2*n),
		peerCh:     make([]int, 2*n),
		sendOff:    make([]uint64, shards),
		stepOff:    make([]uint64, shards),
	}
	for k := 0; k < n; k++ {
		for _, p := range []pulse.Port{pulse.Port0, pulse.Port1} {
			c := chanID(k, p)
			s.chanDir[c] = t.ArrivalDirection(k, p)
			s.outDir[c] = t.DirectionOf(k, p)
			peer := t.Peer(k, p)
			s.peerCh[c] = chanID(peer.Node, peer.Port)
		}
	}
	s.bounds = make([]int, shards+1)
	for a := 0; a <= shards; a++ {
		s.bounds[a] = a * n / shards
	}
	s.arcs = make([]shardArc[M], shards)
	for i := range s.arcs {
		a := &s.arcs[i]
		a.s, a.idx, a.lo, a.hi = s, i, s.bounds[i], s.bounds[i+1]
		a.sched = mk(i)
		if a.sched == nil {
			return nil, fmt.Errorf("sim: scheduler factory returned nil for arc %d", i)
		}
		nc := 2 * (a.hi - a.lo)
		a.frozen = make(bitset, (nc+63)/64)
		a.mark = make([]uint64, nc)
		a.dirtyAt = make([]uint32, nc)
		a.epochTag = 1
		a.view.a = a
	}
	return s, nil
}

// NewSharded builds a sharded simulation of machines on topology t,
// partitioned into the given number of contiguous arcs (clamped to one
// node per arc minimum). mk supplies each arc's scheduler instance.
func NewSharded[M any](t ring.Topology, machines []node.Machine[M], shards int, mk MkScheduler, opts ...ShardOption[M]) (*Sharded[M], error) {
	if len(machines) != t.N() {
		return nil, fmt.Errorf("sim: %d machines for %d nodes", len(machines), t.N())
	}
	s, err := newSharded[M](t, shards, mk)
	if err != nil {
		return nil, err
	}
	s.machines = machines
	for _, o := range opts {
		o(s)
	}
	if err := s.setupShardBatch(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewShardedFlat builds a sharded simulation over a struct-of-arrays
// FlatMachine bank: the configuration that elects over 10⁶–10⁷-node
// rings in a few GB. Arcs touch disjoint slot indices, so the bank
// needs no synchronization.
func NewShardedFlat[M any](t ring.Topology, bank node.FlatMachine[M], shards int, mk MkScheduler, opts ...ShardOption[M]) (*Sharded[M], error) {
	if bank == nil {
		return nil, errors.New("sim: nil machine bank")
	}
	if bank.Len() != t.N() {
		return nil, fmt.Errorf("sim: bank of %d slots for %d nodes", bank.Len(), t.N())
	}
	s, err := newSharded[M](t, shards, mk)
	if err != nil {
		return nil, err
	}
	s.flat = bank
	for _, o := range opts {
		o(s)
	}
	if err := s.setupShardBatch(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Sharded[M]) mInit(k int, e node.Emitter[M]) {
	if s.flat != nil {
		s.flat.Init(k, e)
		return
	}
	s.machines[k].Init(e)
}

func (s *Sharded[M]) mOnMsg(k int, p pulse.Port, m M, e node.Emitter[M]) {
	if s.flat != nil {
		s.flat.OnMsg(k, p, m, e)
		return
	}
	s.machines[k].OnMsg(p, m, e)
}

func (s *Sharded[M]) mReady(k int, p pulse.Port) bool {
	if s.flat != nil {
		return s.flat.Ready(k, p)
	}
	return s.machines[k].Ready(p)
}

func (s *Sharded[M]) mStatus(k int) node.Status {
	if s.flat != nil {
		return s.flat.Status(k)
	}
	return s.machines[k].Status()
}

// Shards returns the effective arc count (after clamping to N).
func (s *Sharded[M]) Shards() int { return len(s.arcs) }

// Topology returns the simulated ring.
func (s *Sharded[M]) Topology() ring.Topology { return s.topo }

// Machine returns node k's machine for introspection, as Sim.Machine.
func (s *Sharded[M]) Machine(k int) node.Machine[M] {
	if s.flat != nil {
		return node.Slot[M]{Bank: s.flat, K: k}
	}
	return s.machines[k]
}

// InFlight returns the number of queued (sent but undelivered) messages.
func (s *Sharded[M]) InFlight() uint64 { return s.sent - s.delivered }

// Quiescent reports that every node has initialized and no message is
// queued anywhere. Accurate at barriers (where Run's checks run).
func (s *Sharded[M]) Quiescent() bool {
	for _, in := range s.inited {
		if !in {
			return false
		}
	}
	return s.InFlight() == 0
}

// Progress returns the running totals of delivered and sent messages
// and completed epochs. Unlike every other accessor it is safe to call
// from another goroutine while Run executes; totals update once per
// epoch barrier.
func (s *Sharded[M]) Progress() (delivered, sent, epochs uint64) {
	return s.progDelivered.Load(), s.progSent.Load(), s.progEpoch.Load()
}

func (s *Sharded[M]) allTerminated() bool {
	for _, t := range s.terminated {
		if !t {
			return false
		}
	}
	return true
}

func (s *Sharded[M]) frozenTotal() int {
	total := 0
	for i := range s.arcs {
		total += s.arcs[i].frozenCount
	}
	return total
}

// arcOf returns the index of the arc owning node k.
func (s *Sharded[M]) arcOf(k int) int {
	return sort.Search(len(s.arcs), func(i int) bool { return s.bounds[i+1] > k })
}

func (s *Sharded[M]) failf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// Result snapshots the current outcome, field-for-field like Sim.Result.
func (s *Sharded[M]) Result() Result {
	n := s.topo.N()
	r := Result{
		N:             n,
		Steps:         s.step,
		Sent:          s.sent,
		Delivered:     s.delivered,
		SentCW:        s.sentCW,
		SentCCW:       s.sentCCW,
		Quiescent:     s.Quiescent(),
		AllTerminated: s.allTerminated(),
		Leader:        -1,
		Statuses:      make([]node.Status, n),
	}
	r.TerminationOrder = append(r.TerminationOrder, s.ordTerm...)
	for k := 0; k < n; k++ {
		st := s.mStatus(k)
		r.Statuses[k] = st
		if st.State == node.StateLeader {
			r.Leaders = append(r.Leaders, k)
		}
	}
	if len(r.Leaders) == 1 {
		r.Leader = r.Leaders[0]
	}
	return r
}

// Run initializes every node (epoch 0: each arc inits its nodes in
// index order, matching the sequential engine's wake-up order) and then
// runs delivery epochs until quiescence. limit bounds the total number
// of handler invocations, checked at epoch granularity with the same
// errors RunDeliveries reports. Run may be called once.
func (s *Sharded[M]) Run(limit uint64) (Result, error) {
	if s.ran {
		return s.Result(), errors.New("sim: sharded simulations are single-use")
	}
	s.ran = true
	stop := s.startWorkers()
	defer stop()

	s.initEpoch = true
	s.runEpoch()
	if err := s.barrier(); err != nil {
		return s.Result(), err
	}
	s.initEpoch = false

	for {
		if s.step >= limit {
			return s.Result(), s.failf("%w (%d)", ErrStepLimit, limit)
		}
		// At a barrier every queued message is frozen, so the frozen
		// total IS the deliverable count; zero with messages in flight
		// is the same permanent stall RunDeliveries detects.
		if s.frozenTotal() == 0 {
			if s.InFlight() == 0 {
				return s.Result(), nil
			}
			if s.allTerminated() {
				return s.Result(), s.failf("%w: %d in flight after all nodes terminated",
					ErrTerminatedNonEmpty, s.InFlight())
			}
			return s.Result(), s.failf("%w: %d in flight", ErrStalled, s.InFlight())
		}
		s.runEpoch()
		if err := s.barrier(); err != nil {
			return s.Result(), err
		}
	}
}

// startWorkers launches one goroutine per arc. Workers idle on their
// start channel between epochs and exit when it closes (the returned
// stop function), so no goroutine outlives Run.
func (s *Sharded[M]) startWorkers() (stop func()) {
	s.starts = make([]chan struct{}, len(s.arcs))
	for i := range s.starts {
		s.starts[i] = make(chan struct{}, 1)
	}
	for i := range s.arcs {
		a := &s.arcs[i]
		ch := s.starts[i]
		go func() {
			for range ch {
				if s.initEpoch {
					a.runInits()
				} else {
					a.runDeliveries()
				}
				s.wg.Done()
			}
		}()
	}
	return func() {
		for _, ch := range s.starts {
			close(ch)
		}
	}
}

// inlineEpochThreshold is the frozen-set size below which dispatching
// workers costs more than the epoch's deliveries: thin epochs (the
// wavefront tail of a stabilizing run) execute inline instead. Arcs
// touch disjoint state, so running them on the coordinator in index
// order is the identical computation — only the parallelism changes.
const inlineEpochThreshold = 256

// runEpoch executes one epoch: every arc drains its frozen set, in
// parallel through the worker pool for bulky epochs or inline for thin
// ones. In the parallel case the channel send happens-before the
// worker's epoch and wg.Done happens-before Wait returns, so the
// coordinator's barrier reads and writes never race with workers.
func (s *Sharded[M]) runEpoch() {
	if !s.initEpoch && s.frozenTotal() < inlineEpochThreshold {
		for i := range s.arcs {
			s.arcs[i].runDeliveries()
		}
		return
	}
	s.wg.Add(len(s.arcs))
	for _, ch := range s.starts {
		ch <- struct{}{}
	}
	s.wg.Wait()
}

// runInits is an arc's epoch 0: wake the arc's nodes in index order.
func (a *shardArc[M]) runInits() {
	for k := a.lo; k < a.hi && a.err == nil; k++ {
		a.initNode(k)
	}
}

func (a *shardArc[M]) initNode(k int) {
	s := a.s
	s.inited[k] = true
	a.localSteps++
	var ev *Event
	if len(s.obs) > 0 {
		a.events = append(a.events, Event{Kind: EvInit, Node: k})
		ev = &a.events[len(a.events)-1]
	}
	s.mInit(k, &a.em)
	if err := a.flushSends(k, ev); err != nil {
		a.err = err
		return
	}
	a.afterHandler(k, ev)
}

// runDeliveries is an arc's delivery epoch: drain the frozen set under
// the arc's scheduler. The frozen set only shrinks net-net (deliveries
// consume frozen messages; new sends stay unfrozen until the barrier),
// so the epoch always terminates.
func (a *shardArc[M]) runDeliveries() {
	for a.err == nil && a.frozenCount > 0 {
		c := a.sched.Next(&a.view)
		if c < 2*a.lo || c >= 2*a.hi || !a.frozen.get(c-2*a.lo) {
			a.err = fmt.Errorf("sim: scheduler picked channel %d outside the frozen deliverable set", c)
			return
		}
		if a.s.batch {
			a.deliverRun(c)
			continue
		}
		a.deliver(c)
	}
}

func (a *shardArc[M]) deliver(c int) {
	s := a.s
	k, p := ChanNode(c), ChanPort(c)
	head := s.queues[c].pop()
	a.deliverE++
	a.localSteps++
	var ev *Event
	if len(s.obs) > 0 {
		a.events = append(a.events, Event{Kind: EvDeliver, Node: k, Port: p, Dir: s.chanDir[c]})
		ev = &a.events[len(a.events)-1]
	}
	s.mOnMsg(k, p, head.msg, &a.em)
	if err := a.flushSends(k, ev); err != nil {
		a.err = err
		return
	}
	a.afterHandler(k, ev)
}

// flushSends mirrors Sim.flushSends: clockwise sends first (Definition
// 21's tie-break), each send numbered by the arc's running send index.
// Intra-arc sends enqueue immediately under their provisional sequence
// number; cross-arc sends are buffered for the barrier.
func (a *shardArc[M]) flushSends(from int, ev *Event) error {
	s := a.s
	buf := a.em.buf
	for pass := 0; pass < 2; pass++ {
		want := pulse.CW
		if pass == 1 {
			want = pulse.CCW
		}
		for _, ps := range buf {
			out := chanID(from, ps.port)
			if s.outDir[out] != want {
				continue
			}
			c := s.peerCh[out]
			to := ChanNode(c)
			a.sendIdx++
			if to >= a.lo && to < a.hi {
				if s.terminated[to] {
					return fmt.Errorf("%w: node %d sent %s toward node %d",
						ErrPostTerminationSend, from, want, to)
				}
				s.queues[c].push(entry[M]{seq: a.boundary + a.sendIdx, cnt: 1, msg: ps.msg})
				a.markDirty(c)
			} else {
				a.border = append(a.border, borderSend[M]{
					idx: a.sendIdx, cnt: 1, ch: int32(c), from: int32(from), dir: want, msg: ps.msg,
				})
			}
			a.sentE++
			if want == pulse.CW {
				a.sentCWE++
			} else {
				a.sentCCWE++
			}
			if ev != nil {
				ev.Sends = append(ev.Sends, SendRec{
					From: from, Port: ps.port, Dir: want,
					To: ring.Endpoint{Node: to, Port: ChanPort(c)},
				})
			}
		}
	}
	a.em.buf = a.em.buf[:0]
	return nil
}

// afterHandler mirrors Sim.afterHandler for one arc: status checks,
// termination bookkeeping, and the Ready-transition refresh of the
// acting node's two channels. Cross-arc checks (border sends toward
// terminated nodes) wait for the barrier.
func (a *shardArc[M]) afterHandler(k int, ev *Event) {
	_ = ev
	s := a.s
	st := s.mStatus(k)
	if st.Err != nil {
		a.err = fmt.Errorf("%w: node %d: %v", ErrMachineFault, k, st.Err)
		return
	}
	if st.Terminated && !s.terminated[k] {
		s.terminated[k] = true
		a.terms = append(a.terms, k)
		if s.queues[chanID(k, pulse.Port0)].n != 0 || s.queues[chanID(k, pulse.Port1)].n != 0 {
			a.err = fmt.Errorf("%w: node %d", ErrTerminatedNonEmpty, k)
			return
		}
	}
	a.refreshFrozen(chanID(k, pulse.Port0))
	a.refreshFrozen(chanID(k, pulse.Port1))
}

// refreshFrozen recomputes owned channel c's bit in the frozen set: the
// head must exist, be frozen (seq <= boundary), and have an
// initialized, unterminated, Ready receiver — refreshChan's condition
// plus the freeze test.
func (a *shardArc[M]) refreshFrozen(c int) {
	s := a.s
	k := ChanNode(c)
	lc := c - 2*a.lo
	was := a.frozen.get(lc)
	q := &s.queues[c]
	if q.n > 0 && q.front().seq <= a.boundary && s.inited[k] && !s.terminated[k] && s.mReady(k, ChanPort(c)) {
		if !was {
			a.frozen.set(lc)
			a.frozenCount++
		}
		a.heapPush(c, q.front().seq)
	} else if was {
		a.frozen.clear(lc)
		a.frozenCount--
	}
}

func (a *shardArc[M]) markDirty(c int) {
	lc := c - 2*a.lo
	if a.dirtyAt[lc] == a.epochTag {
		return
	}
	a.dirtyAt[lc] = a.epochTag
	a.dirty = append(a.dirty, int32(c))
}

// heapPush / heapDrop / oldestFrozen: the arc-local twin of the
// simulator's lazy oldest-message heap, over frozen channels only.
func (a *shardArc[M]) heapPush(c int, seq uint64) {
	lc := c - 2*a.lo
	if a.mark[lc] == seq {
		return
	}
	a.mark[lc] = seq
	h := append(a.heap, heapEntry{seq: seq, c: c})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].seq <= h[i].seq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	a.heap = h
}

func (a *shardArc[M]) heapDrop() {
	h := a.heap
	top := h[0]
	if a.mark[top.c-2*a.lo] == top.seq {
		a.mark[top.c-2*a.lo] = 0
	}
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].seq < h[small].seq {
			small = l
		}
		if r < len(h) && h[r].seq < h[small].seq {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	a.heap = h
}

func (a *shardArc[M]) oldestFrozen() (int, bool) {
	for len(a.heap) > 0 {
		top := a.heap[0]
		if a.frozen.get(top.c-2*a.lo) && a.s.queues[top.c].front().seq == top.seq {
			return top.c, true
		}
		a.heapDrop()
	}
	return 0, false
}

// barrier is the single-threaded epoch merge: renumber the epoch's
// sends arc-major onto the global sequence order, apply border sends,
// emit the merged event stream, fold counters, and re-freeze. Runs
// strictly after wg.Wait, so it owns all arc state.
func (s *Sharded[M]) barrier() error {
	boundary := s.seq
	var totSends, totSteps, totDeliv uint64
	for i := range s.arcs {
		a := &s.arcs[i]
		s.sendOff[i] = totSends
		s.stepOff[i] = totSteps
		totSends += a.sendIdx
		totSteps += a.localSteps
		totDeliv += a.deliverE
	}

	// Renumber intra-arc enqueues from provisional (boundary + local
	// index) to final (+ arc-major prefix). The unfrozen entries of a
	// dirty queue form its suffix, located by the same binary search
	// the views use.
	for i := range s.arcs {
		a := &s.arcs[i]
		off := s.sendOff[i]
		if off == 0 {
			continue // arc 0's provisional numbers are already final
		}
		for _, c := range a.dirty {
			q := &s.queues[c]
			for j := frozenLen(q, boundary); j < int(q.n); j++ {
				q.at(j).seq += off
			}
		}
	}

	// Apply border sends arc-major. Each channel has exactly one
	// sending node, so a border channel receives entries from exactly
	// one arc, in ascending index order: FIFO is preserved without any
	// cross-arc interleaving. A send toward a node that terminated this
	// epoch is the violation Sim.flushSends catches at flush time;
	// detect it here, deterministically, and stop applying.
	var borderErr error
	borderErrArc := len(s.arcs)
borderLoop:
	for i := range s.arcs {
		a := &s.arcs[i]
		off := s.sendOff[i]
		for _, b := range a.border {
			to := ChanNode(int(b.ch))
			if s.terminated[to] {
				borderErr = fmt.Errorf("%w: node %d sent %s toward node %d",
					ErrPostTerminationSend, b.from, b.dir, to)
				borderErrArc = i
				break borderLoop
			}
			s.queues[b.ch].push(entry[M]{seq: boundary + off + b.idx, cnt: b.cnt, msg: b.msg})
		}
	}

	// Merged event stream: events take consecutive global step numbers
	// starting at step + stepPrefix[a] + 1, each advancing by the pulses
	// its transition consumed (Count, or 1) — the numbering the expanded
	// sequential execution assigns. Without batching every Count is zero
	// and this is step + stepPrefix[a] + i + 1 as before.
	if len(s.obs) > 0 {
		for i := range s.arcs {
			a := &s.arcs[i]
			base := s.step + s.stepOff[i]
			var stepAcc uint64
			for j := range a.events {
				ev := &a.events[j]
				ev.Step = base + stepAcc + 1
				if ev.Count > 1 {
					stepAcc += ev.Count
				} else {
					stepAcc++
				}
				for _, o := range s.obs {
					if err := o.OnEvent(ev, s); err != nil {
						err = fmt.Errorf("sim: observer: %w", err)
						s.failed = err
						return err
					}
				}
			}
		}
	}

	// Fold counters and terminations; collect the first error in
	// arc-major order (a border violation outranks the sending arc's
	// own later error).
	var firstErr error
	firstErrArc := len(s.arcs)
	for i := range s.arcs {
		a := &s.arcs[i]
		s.sent += a.sentE
		s.sentCW += a.sentCWE
		s.sentCCW += a.sentCCWE
		s.delivered += a.deliverE
		s.runs += a.runsE
		s.coalesced += a.coalescedE
		s.ordTerm = append(s.ordTerm, a.terms...)
		if firstErr == nil && a.err != nil {
			firstErr = a.err
			firstErrArc = i
		}
	}
	if borderErr != nil && borderErrArc <= firstErrArc {
		firstErr = borderErr
	}
	s.seq += totSends
	s.step += totSteps
	s.progDelivered.Add(totDeliv)
	s.progSent.Add(totSends)
	s.progEpoch.Add(1)
	s.progRuns.Store(s.runs)
	s.progCoalesced.Store(s.coalesced)

	// Advance every arc to the new boundary, then re-freeze the
	// channels whose queues changed: this epoch's enqueue targets and
	// border destinations. Everything else kept its bit current through
	// the mid-epoch refreshes.
	for i := range s.arcs {
		a := &s.arcs[i]
		a.boundary = s.seq
		a.stepBase = s.step
		a.localSteps = 0
		a.sendIdx = 0
		a.sentE, a.sentCWE, a.sentCCWE, a.deliverE = 0, 0, 0, 0
		a.runsE, a.coalescedE = 0, 0
		a.terms = a.terms[:0]
		a.events = a.events[:0]
	}
	for i := range s.arcs {
		a := &s.arcs[i]
		for _, c := range a.dirty {
			a.refreshFrozen(int(c))
		}
		a.dirty = a.dirty[:0]
		a.epochTag++
		for _, b := range a.border {
			t := &s.arcs[s.arcOf(ChanNode(int(b.ch)))]
			t.refreshFrozen(int(b.ch))
		}
		a.border = a.border[:0]
	}

	if firstErr != nil {
		s.failed = firstErr
		return firstErr
	}
	return nil
}
