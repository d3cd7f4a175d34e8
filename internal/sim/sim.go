// Package sim is a deterministic discrete-event simulator for asynchronous
// ring networks. It is the reference runtime for every algorithm in this
// repository: the content-oblivious algorithms of internal/core run on
// Sim[pulse.Pulse], the content-carrying baselines of internal/baseline on
// Sim[baseline.Msg].
//
// Asynchrony is modeled exactly as in Section 2 of the paper: channels never
// drop, duplicate, or inject messages; delays are unbounded but finite.
// (WithFaultPlane deliberately steps outside that model for robustness
// experiments; without it the model holds exactly.) Any
// asynchronous execution is fully determined by the order in which queued
// messages are delivered, so the adversary is a Scheduler that repeatedly
// picks the next channel to deliver from. Per-channel FIFO order is always
// preserved (for contentless pulses this is unobservable; for the baselines
// it matters).
//
// The simulator enforces the model's correctness obligations as it runs:
// a message sent toward a terminated node, or a node terminating with a
// non-empty incoming queue, violates quiescent termination and aborts the
// run with an error; a reachable state with queued messages but no
// deliverable one is a permanent stall and likewise aborts.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Sentinel errors reported by Run and the stepping API.
var (
	// ErrStalled: messages are queued but no machine is ready to consume
	// any of them; since nodes are event-driven the network can never make
	// progress again.
	ErrStalled = errors.New("sim: stalled with undeliverable messages in flight")

	// ErrStepLimit: the delivery budget was exhausted before quiescence.
	ErrStepLimit = errors.New("sim: step limit exceeded")

	// ErrPostTerminationSend: a handler sent a message toward a node that
	// had already terminated, violating quiescent termination.
	ErrPostTerminationSend = errors.New("sim: message sent to terminated node")

	// ErrTerminatedNonEmpty: a node terminated while messages addressed to
	// it were still queued or in flight, violating quiescent termination.
	ErrTerminatedNonEmpty = errors.New("sim: node terminated with pending incoming messages")

	// ErrMachineFault: a machine reported a protocol fault via Status().Err.
	ErrMachineFault = errors.New("sim: machine fault")
)

// EventKind distinguishes the two things that can happen in an event-driven
// network: a node waking up for the first time, and a message delivery.
type EventKind uint8

// Event kinds.
const (
	EvInit EventKind = iota + 1
	EvDeliver
)

// SendRec records one message emission for observers. A record may
// describe a counted pulse run (node.BatchEmitter.SendRun, WithBatching):
// Count holds the run length, and 0 means a single message.
type SendRec struct {
	From  int
	Port  pulse.Port
	Dir   pulse.Direction
	To    ring.Endpoint
	Count uint64 `json:",omitempty"` // run length; 0 means 1
}

// Event describes one simulator step for observers. Payloads are not
// included; observers needing algorithm state introspect machines directly.
// A delivery is a run of pulses from one channel: Count holds how many it
// consumed (0 means 1, the only value without WithBatching), Step is the
// step of the FIRST pulse of the run (the transition spans steps
// Step..Step+Count-1 of the equivalent pulse-by-pulse execution), and
// Sends may carry counted runs. With a fault plane attached, a transition
// that could fire an injection is always a single pulse (see deliver).
type Event struct {
	Kind  EventKind
	Step  uint64
	Node  int
	Port  pulse.Port      // delivery port (EvDeliver only)
	Dir   pulse.Direction // arrival direction (EvDeliver only)
	Count uint64          `json:",omitempty"` // pulses consumed; 0 means 1
	Sends []SendRec       // emissions of this handler invocation
}

// Result summarizes a finished (or aborted) run.
type Result struct {
	N                int
	Steps            uint64 // handler invocations (inits + deliveries)
	Sent             uint64 // total messages sent
	Delivered        uint64 // total messages delivered
	SentCW           uint64 // messages sent clockwise
	SentCCW          uint64 // messages sent counterclockwise
	Quiescent        bool   // no messages left anywhere
	AllTerminated    bool
	Leader           int   // index of the unique leader, or -1
	Leaders          []int // all nodes currently reporting Leader
	Statuses         []node.Status
	TerminationOrder []int // node indices in the order they terminated
}

// Sim is a single-use simulation of one ring execution. Create with New,
// then either call Run, or drive manually with InitNode/Deliver for
// fine-grained schedule control.
type Sim[M any] struct {
	topo     ring.Topology
	machines []node.Machine[M]
	sched    Scheduler
	obs      []Observer[M]

	queues  []fifo[M] // per channel; channel id = node*2 + port
	inited  []bool
	termAt  []uint64 // step+1 at which node terminated; 0 = live
	ordTerm []int

	chanDir []pulse.Direction // arrival direction on each channel
	outDir  []pulse.Direction // travel direction of sends out of (node, port)
	peerCh  []int32           // channel reached by sends out of (node, port)

	// deliv is the incrementally maintained deliverable set: bit c is set
	// iff channel c holds a queued message whose receiver is initialized,
	// unterminated, and Ready. It is updated at every point deliverability
	// can change — enqueue, dequeue, init, termination, and Ready
	// transitions (a machine's Ready only changes inside its own handlers,
	// so refreshing the acting node's two channels after each handler
	// covers every transition). rescan disables it in favor of the
	// retained full-scan reference.
	deliv      bitset
	delivCount int
	rescan     bool

	// oldest is a lazy min-heap over (head sequence number, channel) of
	// deliverable channels: the canonical scheduler's pick in O(log n)
	// instead of an O(n) scan. Entries are validated on inspection (the
	// channel must still be deliverable with that exact head), stale ones
	// are dropped lazily, and heapSeq deduplicates pushes so each
	// (channel, seq) pair is enqueued at most once. Maintenance starts at
	// the first OldestDeliverable consult (oldestOn): schedulers that
	// never ask — Heaviest, Newest, Random — pay nothing, and the first
	// consult rebuilds the heap from the live deliverable set, which is
	// exactly the candidate set continuous maintenance would have kept,
	// and allocates heapSeq.
	oldest   []heapEntry
	heapSeq  []uint64 // last seq pushed per channel; 0 = none
	oldestOn bool

	// aux holds the scheduler-requested priority heaps (see HeapHinted):
	// lazily validated like oldest, but ordered by a per-heap key so
	// Newest, DirBiased, and HashDelay get their picks in O(log n) too.
	// Empty unless the scheduler asked, and always empty in rescan mode,
	// which keeps the rescan reference a heap-free oracle.
	aux []auxHeap

	// wTree is the weighted sampler behind WeightedView (weights.go): a
	// Fenwick tree over channels weighted by queued-message count while
	// deliverable, with wts each channel's current weight and wTotal
	// their sum. Like the oldest heap it starts at the first consult
	// (wOn), so only Random and Laggy pay for it, and rescan mode never
	// builds it.
	wTree  []uint64
	wts    []uint64
	wTotal uint64
	wOn    bool

	step      uint64
	seq       uint64
	sent      uint64
	delivered uint64
	sentCW    uint64
	sentCCW   uint64

	scratch []int // reusable deliverable buffer
	em      emitter[M]
	failed  error

	// bem is em as the node.BatchEmitter handed to OnPulses; WithBatching
	// sets it (only Sim[pulse.Pulse] has one), and a nil bem means every
	// delivery is a single pulse. runs/coalesced feed RunsCoalesced.
	bem       node.BatchEmitter
	runs      uint64 // delivery transitions
	coalesced uint64 // delivery transitions that consumed more than one pulse

	// Fault plane (nil on model-exact runs). crashed nodes consume
	// nothing; initSnap holds pre-Init Undoable snapshots for restarts.
	plane    *fault.Plane
	crashed  []bool
	initSnap [][]byte
}

// entry is one queued element of a channel FIFO: cnt messages occupying
// the contiguous sequence numbers seq .. seq+cnt-1. Without WithBatching
// every entry is a single message (cnt == 1). With it an entry is a
// counted pulse run — sound because a content-oblivious channel's state
// IS its pulse count, and exact because run emissions are per-channel
// contiguous in the expanded execution (see the BatchMachine contract).
// msg comes first: a zero-size last field would be padded, making
// entry[pulse.Pulse] 24 B instead of 16.
type entry[M any] struct {
	msg M
	seq uint64
	cnt uint64
}

// fifo is a head-indexed ring buffer holding one channel's queued
// messages. Unlike q = q[1:] re-slicing it never pins its backing array:
// popped slots are reused, so a channel that stays shallow never grows
// past a few entries no matter how many messages pass through it.
// tot is the queued message count (Σ cnt over entries): equal to n
// without WithBatching, and the scheduler-visible queue length
// everywhere. Buffers start at one entry (batched, most channels never
// hold more than one run) and double. head and n are int32, so push
// panics rather than grow one queue past maxQueueEntries.
type fifo[M any] struct {
	buf  []entry[M] // power-of-two capacity
	head int32
	n    int32
	tot  uint64
}

// maxQueueEntries caps one channel's buffer capacity, keeping fifo's
// int32 head and count exact.
const maxQueueEntries = 1 << 30

// push appends e. With merge set (batched pulse queues, whose messages
// are contentless) it extends the tail entry instead when the sequence
// ranges are contiguous.
func (q *fifo[M]) push(e entry[M], merge bool) {
	q.tot += e.cnt
	if merge && q.n > 0 {
		if tail := q.at(int(q.n) - 1); tail.seq+tail.cnt == e.seq {
			tail.cnt += e.cnt
			return
		}
	}
	if int(q.n) == len(q.buf) {
		if len(q.buf) == maxQueueEntries {
			panic(fmt.Sprintf("sim: channel queue exceeds %d entries", maxQueueEntries))
		}
		grown := make([]entry[M], max(1, 2*len(q.buf)))
		for i := range int(q.n) {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	*q.at(int(q.n)) = e
	q.n++
}

// take consumes m messages from the front of the queue, splitting a
// partially consumed run in place (its remainder keeps ascending,
// contiguous numbering, so the front's seq stays the oldest queued
// message's). m must be at most tot.
func (q *fifo[M]) take(m uint64) {
	q.tot -= m
	for m > 0 {
		f := &q.buf[q.head]
		if f.cnt > m {
			f.seq += m
			f.cnt -= m
			return
		}
		m -= f.cnt
		q.buf[q.head] = entry[M]{} // release any payload reference
		q.head = (q.head + 1) & int32(len(q.buf)-1)
		q.n--
	}
}

func (q *fifo[M]) front() *entry[M] { return &q.buf[q.head] }

// at returns the i-th queued entry (0 = front). i must be < n.
func (q *fifo[M]) at(i int) *entry[M] { return &q.buf[(int(q.head)+i)&(len(q.buf)-1)] }

// heapEntry is one candidate in the oldest-deliverable min-heap.
type heapEntry struct {
	seq uint64
	c   int
}

func (s *Sim[M]) heapPush(c int, seq uint64) {
	if !s.oldestOn {
		return // nobody has consulted the oldest heap; don't maintain it
	}
	if s.heapSeq[c] == seq {
		return // this exact candidate is already enqueued
	}
	if len(s.oldest) >= 2*len(s.queues)+64 {
		// Stale entries are normally drained by oldestDeliverable, but a
		// consumer that stops consulting (a direction-biased scheduler
		// starved of its preferred direction falls back elsewhere) would
		// otherwise leave one behind per head advance — unbounded growth
		// on a long run. Rebuilding from the live deliverable heads once
		// the heap outgrows twice the channel count caps it at
		// O(channels) for amortized O(1) per push. heapPush runs only
		// for deliverable heads, so the rebuild re-registers (c, seq)
		// itself.
		s.heapCompact()
		if s.heapSeq[c] == seq {
			return
		}
	}
	s.heapSeq[c] = seq
	h := append(s.oldest, heapEntry{seq: seq, c: c})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].seq <= h[i].seq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.oldest = h
}

// heapCompact rebuilds the oldest heap from exactly the live candidate
// set: every deliverable channel's current head, nothing else.
func (s *Sim[M]) heapCompact() {
	h := s.oldest[:0]
	for i := range s.heapSeq {
		s.heapSeq[i] = 0
	}
	for c := range s.queues {
		if !s.deliv.get(c) {
			continue
		}
		seq := s.queues[c].front().seq
		s.heapSeq[c] = seq
		h = append(h, heapEntry{seq: seq, c: c})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		for j := i; ; {
			l, r := 2*j+1, 2*j+2
			small := j
			if l < len(h) && h[l].seq < h[small].seq {
				small = l
			}
			if r < len(h) && h[r].seq < h[small].seq {
				small = r
			}
			if small == j {
				break
			}
			h[j], h[small] = h[small], h[j]
			j = small
		}
	}
	s.oldest = h
}

// heapDrop removes the root, clearing its dedup mark if it still owns it.
func (s *Sim[M]) heapDrop() {
	h := s.oldest
	top := h[0]
	if s.heapSeq[top.c] == top.seq {
		s.heapSeq[top.c] = 0
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
	s.oldest = h
}

// oldestDeliverable returns the deliverable channel holding the globally
// oldest (smallest sequence number) deliverable message. Sequence numbers
// are unique, so this is exactly the channel the canonical scan selects.
// ok is false in rescan mode, forcing callers onto the reference path.
func (s *Sim[M]) oldestDeliverable() (c int, ok bool) {
	if s.rescan {
		return 0, false
	}
	if !s.oldestOn {
		// First consult: switch maintenance on and seed the heap with the
		// live candidate set — every deliverable channel's current head,
		// which is exactly what continuous maintenance would hold (minus
		// stale entries). Incremental pushes keep it current from here.
		s.oldestOn = true
		s.heapSeq = make([]uint64, len(s.queues))
		s.heapCompact()
	}
	for len(s.oldest) > 0 {
		top := s.oldest[0]
		if s.deliv.get(top.c) && s.queues[top.c].front().seq == top.seq {
			return top.c, true
		}
		s.heapDrop() // stale: delivered already, or channel not deliverable
	}
	return 0, false
}

// bitset indexes channels; word i holds channels 64i..64i+63.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) appendInto(dst []int) []int {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Observer receives every simulator event; returning an error aborts the
// run. Observers run after the event's sends have been enqueued and all
// built-in violation checks have passed.
type Observer[M any] interface {
	OnEvent(e *Event, s *Sim[M]) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc[M any] func(e *Event, s *Sim[M]) error

// OnEvent implements Observer.
func (f ObserverFunc[M]) OnEvent(e *Event, s *Sim[M]) error { return f(e, s) }

// Option configures a Sim.
type Option[M any] func(*Sim[M])

// WithObserver attaches an observer; multiple observers run in order.
func WithObserver[M any](o Observer[M]) Option[M] {
	return func(s *Sim[M]) { s.obs = append(s.obs, o) }
}

// maxNodes is the largest ring the constructors accept: channel ids run
// to 2n-1 and are stored as int32 in the wiring caches and the heaps.
const maxNodes = 1 << 30

// checkRingSize rejects rings whose channel ids would not fit in int32.
func checkRingSize(n int) error {
	if n > maxNodes {
		return fmt.Errorf("sim: ring of %d nodes exceeds the %d-node limit (channel ids must fit in int32)", n, maxNodes)
	}
	return nil
}

// New builds a simulation of machines on topology t driven by sched.
// len(machines) must equal t.N().
func New[M any](t ring.Topology, machines []node.Machine[M], sched Scheduler, opts ...Option[M]) (*Sim[M], error) {
	n := t.N()
	if len(machines) != n {
		return nil, fmt.Errorf("sim: %d machines for %d nodes", len(machines), n)
	}
	if sched == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	if err := checkRingSize(n); err != nil {
		return nil, err
	}
	s := &Sim[M]{
		topo:     t,
		machines: machines,
		sched:    sched,
		queues:   make([]fifo[M], 2*n),
		inited:   make([]bool, n),
		termAt:   make([]uint64, n),
		chanDir:  make([]pulse.Direction, 2*n),
		outDir:   make([]pulse.Direction, 2*n),
		peerCh:   make([]int32, 2*n),
		deliv:    make(bitset, (2*n+63)/64),
		crashed:  make([]bool, n),
	}
	for k := 0; k < n; k++ {
		for _, p := range []pulse.Port{pulse.Port0, pulse.Port1} {
			// Channel into (k, p) carries messages traveling opposite to
			// the direction k would send out of p. The outgoing wiring is
			// cached here once so flush never consults the topology
			// on the per-send path; the receiving endpoint is recovered
			// from the peer's channel id with chanEndpoint.
			c := chanID(k, p)
			s.chanDir[c] = t.ArrivalDirection(k, p)
			s.outDir[c] = t.DirectionOf(k, p)
			to := t.Peer(k, p)
			s.peerCh[c] = int32(chanID(to.Node, to.Port))
		}
	}
	for _, o := range opts {
		o(s)
	}
	if !s.rescan {
		s.installHeapHints()
	}
	if s.plane != nil {
		s.captureInitialSnapshots()
	}
	return s, nil
}

func chanID(k int, p pulse.Port) int { return 2*k + int(p) }

// ChanNode returns the receiving node of channel c.
func ChanNode(c int) int { return c / 2 }

// ChanPort returns the receiving port of channel c.
func ChanPort(c int) pulse.Port { return pulse.Port(c % 2) }

// chanEndpoint returns the receiving endpoint of channel c.
func chanEndpoint(c int) ring.Endpoint { return ring.Endpoint{Node: ChanNode(c), Port: ChanPort(c)} }

// emitter buffers a handler's sends so they take effect atomically, with
// clockwise sends enqueued first. That ordering realizes the canonical
// scheduler's tie-break of Definition 21 ("prioritizing CW pulses" among
// pulses emitted at the same instant) and is harmless for every other
// scheduler. A send is a run of one; on Sim[pulse.Pulse] the emitter is
// also the node.BatchEmitter handed to OnPulses.
type emitter[M any] struct {
	buf []pendingSend[M]
}

type pendingSend[M any] struct {
	port pulse.Port
	msg  M
	n    uint64
}

// Send implements node.Emitter.
func (e *emitter[M]) Send(p pulse.Port, m M) {
	if !p.Valid() {
		panic(fmt.Sprintf("sim: send on invalid port %d", p))
	}
	e.buf = append(e.buf, pendingSend[M]{port: p, msg: m, n: 1})
}

// SendRun implements node.BatchEmitter: n contentless messages out of p.
func (e *emitter[M]) SendRun(p pulse.Port, n uint64) {
	if !p.Valid() {
		panic(fmt.Sprintf("sim: send on invalid port %d", p))
	}
	if n > 0 {
		e.buf = append(e.buf, pendingSend[M]{port: p, n: n})
	}
}

// flush enqueues the sends node from buffered during a handler that
// consumed consumed messages (1 for Init), clockwise first, consulting
// the fault plane on each. Multi-message transitions must be
// emission-uniform (checkRunUniformity).
func (s *Sim[M]) flush(from int, consumed uint64, ev *Event) error {
	buf := s.em.buf
	if err := checkRunUniformity(buf, consumed); err != nil {
		return err
	}
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
			c := int(s.peerCh[out])
			if s.termAt[ChanNode(c)] != 0 {
				return fmt.Errorf("%w: node %d sent %s toward node %d",
					ErrPostTerminationSend, from, want, ChanNode(c))
			}
			if s.plane != nil {
				switch s.plane.OnSend(s.step, c, ps.n) {
				case fault.Loss:
					continue // vanished in transit; never reaches the queue
				case fault.Dup:
					s.enqueue(c, ps.msg, ps.n, want)
				}
			}
			s.enqueue(c, ps.msg, ps.n, want)
			if ev != nil {
				rec := SendRec{From: from, Port: ps.port, Dir: want, To: chanEndpoint(c)}
				if ps.n > 1 {
					rec.Count = ps.n
				}
				ev.Sends = append(ev.Sends, rec)
			}
		}
	}
	s.em.buf = s.em.buf[:0]
	return nil
}

// enqueue places n copies of msg on channel c traveling dir, assigning
// the next n global sequence numbers and maintaining the counters and the
// deliverable set. It is the single point where messages enter the wire:
// handler emissions, duplicated pulses, and spurious injections all land
// here, so Sent and InFlight count adversarial traffic too.
func (s *Sim[M]) enqueue(c int, msg M, n uint64, dir pulse.Direction) {
	q := &s.queues[c]
	wasEmpty := q.n == 0
	q.push(entry[M]{msg: msg, seq: s.seq + 1, cnt: n}, s.bem != nil)
	s.seq += n
	s.sent += n
	if dir == pulse.CW {
		s.sentCW += n
	} else {
		s.sentCCW += n
	}
	if wasEmpty {
		// Empty -> non-empty is the only enqueue transition that can
		// change deliverability.
		s.refreshChan(c)
	} else if (s.wOn || len(s.aux) > 0) && s.deliv.get(c) {
		// The head is unchanged but the count moved: the weighted
		// sampler and a count-keyed heap (HeapHeaviest) re-register; the
		// head-keyed heaps dedup this to a no-op.
		if s.wOn {
			s.setWeight(c, q.tot)
		}
		if len(s.aux) > 0 {
			s.auxPush(c, q.front().seq)
		}
	}
}

// refreshChan recomputes channel c's bit in the deliverable set and, when
// deliverable, registers its current head in the oldest-message heap and
// its count in the weighted sampler.
func (s *Sim[M]) refreshChan(c int) {
	k := ChanNode(c)
	was := s.deliv.get(c)
	if s.queues[c].n > 0 && s.inited[k] && s.termAt[k] == 0 && !s.crashed[k] && s.machines[k].Ready(ChanPort(c)) {
		if !was {
			s.deliv.set(c)
			s.delivCount++
		}
		s.heapPush(c, s.queues[c].front().seq)
		if len(s.aux) > 0 {
			s.auxPush(c, s.queues[c].front().seq)
		}
		if s.wOn {
			s.setWeight(c, s.queues[c].tot)
		}
	} else if was {
		s.deliv.clear(c)
		s.delivCount--
		if s.wOn {
			s.setWeight(c, 0)
		}
	}
}

// afterHandler performs the built-in checks, brings the deliverable set
// up to date with node k's post-handler state, and notifies observers.
// ev is nil exactly when no observer is attached.
func (s *Sim[M]) afterHandler(k int, ev *Event) error {
	st := s.machines[k].Status()
	if st.Err != nil {
		return fmt.Errorf("%w: node %d: %v", ErrMachineFault, k, st.Err)
	}
	if st.Terminated && s.termAt[k] == 0 {
		s.termAt[k] = s.step + 1
		s.ordTerm = append(s.ordTerm, k)
		if s.queues[chanID(k, pulse.Port0)].n != 0 || s.queues[chanID(k, pulse.Port1)].n != 0 {
			return fmt.Errorf("%w: node %d", ErrTerminatedNonEmpty, k)
		}
	}
	// A machine's Ready answers only change inside its own handlers, so
	// re-evaluating the acting node's two channels (the queue pop and the
	// enqueues were refreshed at their own sites) restores the invariant
	// before observers — which may call Deliverable — run.
	s.refreshChan(chanID(k, pulse.Port0))
	s.refreshChan(chanID(k, pulse.Port1))
	if ev != nil {
		for _, o := range s.obs {
			if err := o.OnEvent(ev, s); err != nil {
				return fmt.Errorf("sim: observer: %w", err)
			}
		}
	}
	return nil
}

// InitNode wakes node k (its Machine.Init runs and may send). Idempotence
// is an error: each node inits exactly once.
func (s *Sim[M]) InitNode(k int) error {
	if s.failed != nil {
		return s.failed
	}
	if k < 0 || k >= s.topo.N() {
		return fmt.Errorf("sim: init of node %d outside [0,%d)", k, s.topo.N())
	}
	if s.inited[k] {
		return fmt.Errorf("sim: node %d already initialized", k)
	}
	s.inited[k] = true
	s.step++
	if err := s.runInit(k); err != nil {
		return s.fail(err)
	}
	if s.plane != nil {
		if err := s.applyNodeFault(k, 1); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// runInit executes node k's Init as one handler invocation at the
// current step.
func (s *Sim[M]) runInit(k int) error {
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvInit, Step: s.step, Node: k}
	}
	s.machines[k].Init(&s.em)
	if err := s.flush(k, 1, ev); err != nil {
		return err
	}
	return s.afterHandler(k, ev)
}

func (s *Sim[M]) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// deliverableRescan appends the ids of channels with a queued message
// whose receiving machine is initialized, unterminated, and Ready, by
// scanning every channel. It is the naive O(n) reference the incremental
// set is verified against.
func (s *Sim[M]) deliverableRescan(dst []int) []int {
	for c := range s.queues {
		if s.queues[c].n == 0 {
			continue
		}
		k := ChanNode(c)
		if !s.inited[k] || s.termAt[k] != 0 || s.crashed[k] {
			continue
		}
		if !s.machines[k].Ready(ChanPort(c)) {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// Deliverable returns the ids of channels the scheduler may deliver from
// right now, in ascending channel-id order. The returned slice is valid
// until the next simulator step.
func (s *Sim[M]) Deliverable() []int {
	if s.rescan {
		s.scratch = s.deliverableRescan(s.scratch[:0])
	} else {
		s.scratch = s.deliv.appendInto(s.scratch[:0])
	}
	return s.scratch
}

// Deliver delivers the head message of channel c to the receiver's
// handler: one pulse, also on a batched simulation. c must currently be
// deliverable.
func (s *Sim[M]) Deliver(c int) error { return s.deliver(c, 1) }

// deliver runs one transition on channel c: the receiver consumes at most
// max of the messages queued there (Run passes MaxUint64 under
// WithBatching: the whole queue). With max == 1, or a machine that is
// not a node.BatchMachine, that is one OnMsg call on the head message;
// otherwise OnPulses takes the run and reports how much of it it
// consumed. Step, Delivered and the sequence numbers advance by message
// counts, so Result totals do not depend on how deliveries are grouped.
//
// A fault plane fires injections only at single events, so with one
// attached a transition is capped at one pulse while the plane has an
// injection pending on anything it touches (fault.Plane.Quiet). Every
// injection then fires in a single-pulse transition at the step it fires
// at in the expanded, pulse-by-pulse execution, and an uncapped run
// advances the plane's counters by its counts without firing anything.
// Faults can also make a node send toward a terminated neighbor, which
// aborts the expanded execution at its first pulse, so a transition of a
// node with a terminated neighbor is capped too.
func (s *Sim[M]) deliver(c int, max uint64) error {
	if s.failed != nil {
		return s.failed
	}
	if c < 0 || c >= len(s.queues) || s.queues[c].n == 0 {
		return fmt.Errorf("sim: deliver on empty or invalid channel %d", c)
	}
	k, p := ChanNode(c), ChanPort(c)
	switch {
	case !s.inited[k]:
		return fmt.Errorf("sim: deliver to uninitialized node %d", k)
	case s.termAt[k] != 0:
		return s.fail(fmt.Errorf("%w: delivery attempted to node %d", ErrPostTerminationSend, k))
	case s.crashed[k]:
		return fmt.Errorf("sim: deliver to crashed node %d", k)
	case !s.machines[k].Ready(p):
		return fmt.Errorf("sim: deliver on non-ready port %s of node %d", p, k)
	}
	q := &s.queues[c]
	max = min(max, q.tot)
	if max > 1 && s.plane != nil {
		out0, out1 := int(s.peerCh[chanID(k, pulse.Port0)]), int(s.peerCh[chanID(k, pulse.Port1)])
		if s.termAt[ChanNode(out0)] != 0 || s.termAt[ChanNode(out1)] != 0 || !s.plane.Quiet(c, out0, out1) {
			max = 1
		}
	}
	m := uint64(1)
	var bm node.BatchMachine
	if max > 1 {
		bm, _ = any(s.machines[k]).(node.BatchMachine)
	}
	if bm != nil {
		m = bm.OnPulses(p, max, s.bem)
		if m == 0 || m > max {
			return s.fail(fmt.Errorf("sim: batch transition at node %d consumed %d of %d queued pulses", k, m, max))
		}
	} else {
		s.machines[k].OnMsg(p, q.front().msg, &s.em)
	}
	q.take(m)
	s.delivered += m
	s.step += m
	s.runs++
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvDeliver, Step: s.step - m + 1, Node: k, Port: p, Dir: s.chanDir[c]}
	}
	if m > 1 {
		s.coalesced++
		if ev != nil {
			ev.Count = m
		}
	}
	if err := s.flush(k, m, ev); err != nil {
		return s.fail(err)
	}
	if err := s.afterHandler(k, ev); err != nil {
		return s.fail(err)
	}
	if s.plane != nil {
		if err := s.applyFaults(c, k, m); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// InFlight returns the number of queued (sent but undelivered) messages.
func (s *Sim[M]) InFlight() uint64 { return s.sent - s.delivered }

// Quiescent reports that every node has initialized and no message is
// queued anywhere: by event-drivenness, no further state change can occur.
func (s *Sim[M]) Quiescent() bool {
	for _, in := range s.inited {
		if !in {
			return false
		}
	}
	return s.InFlight() == 0
}

// Machine returns node k's machine for introspection by observers/tests.
func (s *Sim[M]) Machine(k int) node.Machine[M] { return s.machines[k] }

// Topology returns the simulated ring.
func (s *Sim[M]) Topology() ring.Topology { return s.topo }

// Step returns the number of handler invocations so far.
func (s *Sim[M]) Step() uint64 { return s.step }

// QueueLen returns the number of messages queued on channel c: pulses,
// not run entries, so schedulers that weight by queue length (Random)
// see the same quantity with and without WithBatching.
func (s *Sim[M]) QueueLen(c int) int { return int(s.queues[c].tot) }

// RunsCoalesced reports the batch fast path's win so far: the number of
// delivery transitions executed and, of those, how many consumed more
// than one pulse in a single O(1) step. Without WithBatching every
// transition is one pulse, so transitions equals Delivered and multi is 0.
func (s *Sim[M]) RunsCoalesced() (transitions, multi uint64) { return s.runs, s.coalesced }

// headSeq returns the send sequence number of channel c's oldest message.
func (s *Sim[M]) headSeq(c int) uint64 { return s.queues[c].front().seq }

// Run initializes every node (in index order, which is itself just one
// admissible schedule; use InitNode for adversarial wake-ups) and delivers
// messages as chosen by the scheduler until quiescence. limit bounds the
// total number of handler invocations.
func (s *Sim[M]) Run(limit uint64) (Result, error) {
	for k := 0; k < s.topo.N(); k++ {
		if s.inited[k] {
			continue
		}
		if err := s.InitNode(k); err != nil {
			return s.Result(), err
		}
	}
	return s.RunDeliveries(limit)
}

// RunDeliveries delivers until quiescence without initializing anyone;
// callers must have performed the wake-ups they want first (all nodes, for
// the standard model).
func (s *Sim[M]) RunDeliveries(limit uint64) (Result, error) {
	if s.failed != nil {
		return s.Result(), s.failed
	}
	view := view[M]{s: s}
	for {
		if s.step >= limit {
			return s.Result(), s.fail(fmt.Errorf("%w (%d)", ErrStepLimit, limit))
		}
		// The incremental count answers "anything deliverable?" in O(1);
		// the rescan reference recomputes it, staying a true oracle.
		none := s.delivCount == 0
		if s.rescan {
			none = len(s.Deliverable()) == 0
		}
		if none {
			if s.InFlight() == 0 {
				return s.Result(), nil
			}
			if s.allTerminated() {
				return s.Result(), s.fail(fmt.Errorf("%w: %d in flight after all nodes terminated",
					ErrTerminatedNonEmpty, s.InFlight()))
			}
			return s.Result(), s.fail(fmt.Errorf("%w: %d in flight", ErrStalled, s.InFlight()))
		}
		c := s.sched.Next(&view)
		run := uint64(1)
		if s.bem != nil {
			run = math.MaxUint64 // the whole queued run
		}
		if err := s.deliver(c, run); err != nil {
			return s.Result(), err
		}
	}
}

func (s *Sim[M]) allTerminated() bool {
	for k := range s.termAt {
		if s.termAt[k] == 0 {
			return false
		}
	}
	return true
}

// Result snapshots the current outcome; valid at any point, not only after
// quiescence.
func (s *Sim[M]) Result() Result {
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
		st := s.machines[k].Status()
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
