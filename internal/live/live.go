// Package live executes pulse machines on a runtime made of real
// concurrency: one goroutine per ring node, connected by unbounded FIFO
// conduits. The Go scheduler supplies the asynchrony — message delays
// become goroutine scheduling delays, unbounded but finite, exactly the
// adversary of Section 2 — so this runtime complements the deterministic
// simulator (internal/sim) with genuinely nondeterministic executions.
//
// Content-obliviousness is physical here: the conduits carry struct{}
// values, so there is no content to consult even by accident.
//
// Quiescence detection uses a single conservation counter: every send
// increments it and every fully processed delivery decrements it after the
// handler (and its sends) completed. Pulses are created only inside
// handlers, and a running handler keeps its own input pulse counted, so
// once the counter reaches zero with all nodes initialized it can never
// rise again: zero is a stable, race-free quiescence witness. Detection is
// event-driven — whichever goroutine performs the decrement that reaches
// (0 in flight, 0 uninitialized) signals the supervisor directly, so there
// is no poll loop and no detection latency to tune.
//
// A watchdog supervises the whole run: if the deadline passes without
// quiescence, Run returns a structured StallReport naming the stalled
// nodes, their queue occupancy, and the in-flight count, instead of a bare
// timeout.
//
// WithFaultPlane steps deliberately outside the model: conduits then drop,
// duplicate, and inject pulses, and nodes crash, restart, or corrupt on
// the plane's seeded schedule. Fault accounting preserves the conservation
// argument — drops are decided before the counter increment, injections
// are counted before their pulse is offered, and a restart's sends happen
// inside the handler window — so zero remains a stable witness even on
// faulted runs.
//
// WithSupervisor closes the loop a crash opens. Without it a crashed node
// is gone for good: its goroutine exits, its queued pulses strand, and the
// run ends in a StallReport. With it, the dying goroutine hands its node to
// a supervisor goroutine, which restores the machine (per RestorePolicy),
// re-spawns the consume loop on the same conduits (the pumps never died),
// and thereby re-enters the quiescence protocol: the revived node's queued
// pulses are still in the conservation ledger, so zero — and hence
// quiescence — becomes reachable again. Under RestoreCheckpoint the
// machine resumes from its exact crash-time state, so a healed run sends
// exactly as many pulses as a clean one; under RestoreInit the node comes
// back amnesiac (init snapshot plus a fresh Init), modeling a fail-stop
// restart that the quiescently stabilizing algorithms must absorb.
package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// ErrTimeout is returned when the network fails to quiesce within the
// configured deadline. The returned error is a *StallError carrying the
// full StallReport; errors.Is(err, ErrTimeout) matches it.
var ErrTimeout = errors.New("live: timed out waiting for quiescence")

// Result summarizes a finished live run.
type Result struct {
	N                int
	Sent             uint64
	Delivered        uint64
	SentCW           uint64
	SentCCW          uint64
	Quiescent        bool
	AllTerminated    bool
	Leader           int // unique leader index, or -1
	Leaders          []int
	Statuses         []node.Status
	TerminationOrder []int
	// Heals lists, in supervision order, the node index of every crash
	// the supervisor healed; a node that crashed twice appears twice.
	Heals []int
	// Notes is the structured run log: deprecated options, unhealable
	// crashes, and similar diagnoses that are not errors.
	Notes []RunNote
}

// RunNote is one structured run-log entry.
type RunNote struct {
	// Code is a stable machine-matchable tag ("deprecated-option",
	// "unhealable-crash").
	Code string
	// Detail is the human-readable elaboration.
	Detail string
}

// StallReport is the watchdog's structured diagnosis of a run that failed
// to quiesce: the conservation counter's residue plus, per implicated
// node, its queue occupancy, crash flag, and machine status.
type StallReport struct {
	// InFlight is the conservation counter at the deadline: pulses sent
	// (or injected) but never fully processed.
	InFlight int64
	// Unstarted counts nodes whose Init had not completed.
	Unstarted int
	// Nodes lists every node with a non-empty queue or a crash, in
	// ascending node order.
	Nodes []NodeStall
}

// NodeStall describes one stalled node.
type NodeStall struct {
	Node int
	// Queued holds the undelivered pulse count per port.
	Queued [2]int
	// Crashed reports a fault-plane crash (the node stopped consuming).
	Crashed bool
	// Status is the machine's final status.
	Status node.Status
}

// nodeStallJSON is the wire shape of NodeStall: node.Status is inlined
// with its Err flattened to a message string, since error values do not
// survive encoding/json.
type nodeStallJSON struct {
	Node           int        `json:"node"`
	Queued         [2]int     `json:"queued"`
	Crashed        bool       `json:"crashed,omitempty"`
	State          node.State `json:"state"`
	Terminated     bool       `json:"terminated,omitempty"`
	HasOrientation bool       `json:"hasOrientation,omitempty"`
	CWPort         pulse.Port `json:"cwPort,omitempty"`
	Err            string     `json:"err,omitempty"`
}

// MarshalJSON implements json.Marshaler; see nodeStallJSON.
func (ns NodeStall) MarshalJSON() ([]byte, error) {
	w := nodeStallJSON{
		Node:           ns.Node,
		Queued:         ns.Queued,
		Crashed:        ns.Crashed,
		State:          ns.Status.State,
		Terminated:     ns.Status.Terminated,
		HasOrientation: ns.Status.HasOrientation,
		CWPort:         ns.Status.CWPort,
	}
	if ns.Status.Err != nil {
		w.Err = ns.Status.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. A non-empty err string comes
// back as an opaque error with that message, so a decoded report
// re-encodes to the same bytes.
func (ns *NodeStall) UnmarshalJSON(data []byte) error {
	var w nodeStallJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*ns = NodeStall{
		Node:    w.Node,
		Queued:  w.Queued,
		Crashed: w.Crashed,
		Status: node.Status{
			State:          w.State,
			Terminated:     w.Terminated,
			HasOrientation: w.HasOrientation,
			CWPort:         w.CWPort,
		},
	}
	if w.Err != "" {
		ns.Status.Err = errors.New(w.Err)
	}
	return nil
}

// StallError is the timeout error: it wraps ErrTimeout and carries the
// StallReport.
type StallError struct {
	Report StallReport
}

// Error renders the report on one line.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %d pulses unaccounted", ErrTimeout, e.Report.InFlight)
	if e.Report.Unstarted > 0 {
		fmt.Fprintf(&b, ", %d nodes uninitialized", e.Report.Unstarted)
	}
	for _, ns := range e.Report.Nodes {
		fmt.Fprintf(&b, "; stalled node %d", ns.Node)
		if ns.Crashed {
			b.WriteString(" (crashed)")
		}
		if ns.Queued[0] > 0 || ns.Queued[1] > 0 {
			fmt.Fprintf(&b, " queued=[%d %d]", ns.Queued[0], ns.Queued[1])
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrTimeout) hold.
func (e *StallError) Unwrap() error { return ErrTimeout }

type config struct {
	timeout   time.Duration
	chaos     uint64 // 0 = off; otherwise a jitter seed
	plane     *fault.Plane
	supervise bool
	policy    RestorePolicy
	notes     []RunNote
}

// Option configures Run.
type Option func(*config)

// WithTimeout bounds the whole run (default 10s).
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithPollInterval has no effect: quiescence detection is event-driven
// (the goroutine whose decrement takes the conservation counter to zero
// with all nodes initialized signals the watchdog), so there is no poll
// period left to tune. Calls are recorded as a "deprecated-option" note
// in Result.Notes so lingering call sites surface in run logs instead of
// silently vanishing.
//
// Deprecated: remove calls; the option has no effect.
func WithPollInterval(d time.Duration) Option {
	return func(c *config) {
		c.notes = append(c.notes, RunNote{
			Code:   "deprecated-option",
			Detail: fmt.Sprintf("WithPollInterval(%v) ignored: quiescence detection is event-driven", d),
		})
	}
}

// RestorePolicy selects what state a supervised node is revived with.
type RestorePolicy uint8

const (
	// RestoreCheckpoint (the default) resumes the machine from its exact
	// crash-time state: the crash killed the goroutine, not the state, so
	// the healed run is pulse-for-pulse identical to a crash-free one.
	RestoreCheckpoint RestorePolicy = iota
	// RestoreInit revives the node amnesiac: the machine is restored to
	// its pre-Init snapshot and re-initialized (its wake-up sends are
	// counted normally). This models a fail-stop restart with state loss
	// and requires the machine to be node.Undoable; a crash of a
	// non-restorable machine is recorded as an "unhealable-crash" note
	// and left dead.
	RestoreInit
)

// WithSupervisor enables crash healing: when a fault-plane crash kills a
// node's goroutine, a supervisor revives the node under the given policy
// and the ring re-enters the quiescence protocol. Without a fault plane
// the option is inert.
func WithSupervisor(p RestorePolicy) Option {
	return func(c *config) { c.supervise = true; c.policy = p }
}

// WithChaos makes every conduit inject pseudo-random scheduling jitter
// (bursts of runtime.Gosched and occasional microsecond sleeps) before
// each delivery, seeded per channel from seed. This widens the set of
// interleavings the Go scheduler realizes — a cheap approximation of the
// adversarial delays the model allows, on real concurrency.
func WithChaos(seed int64) Option { return func(c *config) { c.chaos = uint64(seed) | 1 } }

// WithFaultPlane attaches a fault plane: sends consult it for loss and
// duplication, conduit pumps for spurious injection, and node goroutines
// for crash/restart/corruption after each handler. The plane's trigger
// counters are per-entity and each entity is driven by exactly one
// goroutine here (one sender, one pump, one node loop), matching the
// plane's lock-free ownership contract. Faulted runs routinely end in a
// *StallError — a crashed node strands its queue — which is then the
// expected outcome, not a failure of the runtime.
func WithFaultPlane(p *fault.Plane) Option { return func(c *config) { c.plane = p } }

// Run executes the machines until quiescence (or until every node
// terminates) and returns the outcome. Machines must not be reused across
// runs.
func Run(topo ring.Topology, machines []node.PulseMachine, opts ...Option) (Result, error) {
	if len(machines) != topo.N() {
		return Result{}, fmt.Errorf("live: %d machines for %d nodes", len(machines), topo.N())
	}
	cfg := config{timeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	n := topo.N()
	if cfg.plane != nil && cfg.plane.Config().Nodes != n {
		return Result{}, fmt.Errorf("live: fault plane sized for %d nodes on a %d-node ring",
			cfg.plane.Config().Nodes, n)
	}

	r := &netRuntime{
		topo:      topo,
		machines:  machines,
		stop:      make(chan struct{}),
		quiesce:   make(chan struct{}, 1),
		conduits:  make([]*conduit, 2*n),
		plane:     cfg.plane,
		supervise: cfg.supervise && cfg.plane != nil,
		policy:    cfg.policy,
		crashCh:   make(chan int),
		notes:     cfg.notes,
	}
	r.initsLeft.Store(int64(n))
	if r.plane != nil {
		r.crashed = make([]bool, n)
		r.initSnaps = make([][]byte, n)
		for k, m := range machines {
			if u, ok := m.(node.Undoable); ok {
				r.initSnaps[k] = u.SnapshotTo(nil)
			}
		}
	}

	// One conduit per directed channel, keyed by receiving endpoint.
	for k := 0; k < n; k++ {
		for _, p := range []pulse.Port{pulse.Port0, pulse.Port1} {
			c := 2*k + int(p)
			var jitter uint64
			if cfg.chaos != 0 {
				jitter = cfg.chaos*0x9e3779b97f4a7c15 + uint64(c)
			}
			cd := newConduit(jitter)
			if r.plane != nil {
				ch := c
				dir := topo.ArrivalDirection(k, p)
				// The pump consults the plane once per delivery; an
				// injected pulse is counted in flight before it is ever
				// offered, keeping zero a stable quiescence witness.
				cd.preDeliver = func() int {
					if r.plane.OnDeliver(0, ch) == fault.Spurious {
						r.count(dir)
						return 1
					}
					return 0
				}
			}
			r.conduits[c] = cd
		}
	}

	r.wg.Add(n)
	for k := 0; k < n; k++ {
		go r.nodeLoop(k)
	}
	if r.supervise {
		r.wg.Add(1)
		go r.superviseLoop()
	}

	// Watchdog: wait for the quiescence signal, then release the node
	// goroutines; at the deadline, diagnose instead.
	deadline := time.NewTimer(cfg.timeout)
	defer deadline.Stop()

	var timedOut bool
monitor:
	for {
		select {
		case <-r.quiesce:
			// The signal is sent by the goroutine that observed
			// (0 in flight, 0 uninitialized); re-check defensively.
			if r.initsLeft.Load() == 0 && r.inflight.Load() == 0 {
				break monitor
			}
		case <-deadline.C:
			timedOut = true
			break monitor
		}
	}
	close(r.stop)
	for _, c := range r.conduits {
		c.close()
	}
	r.wg.Wait()

	res := r.collect()
	if timedOut {
		return res, &StallError{Report: r.stallReport()}
	}
	return res, nil
}

type netRuntime struct {
	topo      ring.Topology
	machines  []node.PulseMachine
	conduits  []*conduit
	stop      chan struct{}
	quiesce   chan struct{} // buffered(1): edge signal that zero was reached
	wg        sync.WaitGroup
	inflight  atomic.Int64
	initsLeft atomic.Int64

	sent      atomic.Uint64
	delivered atomic.Uint64
	sentCW    atomic.Uint64
	sentCCW   atomic.Uint64

	mu        sync.Mutex
	termOrder []int
	heals     []int
	notes     []RunNote

	// Fault plane state (nil/absent on model-exact runs). crashed[k],
	// initSnaps[k], and machines[k] are owned by whichever goroutine is
	// currently driving node k; ownership starts at the node's goroutine
	// and transfers through the crashCh handoff (channel send), then to
	// the revived goroutine (goroutine start), so every write is ordered
	// and the post-wg.Wait reads in collect/stallReport see the final
	// values without extra synchronization.
	plane     *fault.Plane
	crashed   []bool
	initSnaps [][]byte

	// Supervision (off unless WithSupervisor and a fault plane are both
	// present). crashCh carries the index of a crashed node from its
	// dying goroutine to the supervisor.
	supervise bool
	policy    RestorePolicy
	crashCh   chan int
}

// noteQuiet signals the supervisor if the conservation counter is zero with
// every node initialized. Called after every decrement of either counter;
// zero is stable once reached (no handler is running when in-flight is
// zero, so nothing can send), making the edge signal sufficient.
func (r *netRuntime) noteQuiet() {
	if r.initsLeft.Load() == 0 && r.inflight.Load() == 0 {
		select {
		case r.quiesce <- struct{}{}:
		default:
		}
	}
}

// count records one pulse entering the wire.
func (r *netRuntime) count(dir pulse.Direction) {
	r.inflight.Add(1)
	r.sent.Add(1)
	if dir == pulse.CW {
		r.sentCW.Add(1)
	} else {
		r.sentCCW.Add(1)
	}
}

// emitter routes a node's sends into the appropriate conduits, maintaining
// the conservation counter.
type emitter struct {
	r    *netRuntime
	from int
}

// Send implements node.Emitter. With a fault plane, loss is decided before
// the pulse is counted (a dropped pulse never enters the conservation
// ledger) and duplication places two counted pulses.
func (e emitter) Send(p pulse.Port, m pulse.Pulse) {
	to := e.r.topo.Peer(e.from, p)
	c := 2*to.Node + int(to.Port)
	copies := 1
	if e.r.plane != nil {
		switch e.r.plane.OnSend(0, c) {
		case fault.Loss:
			return
		case fault.Dup:
			copies = 2
		}
	}
	dir := e.r.topo.DirectionOf(e.from, p)
	for i := 0; i < copies; i++ {
		e.r.count(dir)
		e.r.conduits[c].push()
	}
}

// applyNodeFault consults the plane after node k's handler invocation and
// applies the outcome. It returns false when the node crashed (the caller
// must stop consuming); restart and corruption keep the node running.
func (r *netRuntime) applyNodeFault(k int, m node.PulseMachine, em node.PulseEmitter) bool {
	if r.plane == nil {
		return true
	}
	switch r.plane.OnHandler(0, k) {
	case fault.Crash:
		r.crashed[k] = true
		return false
	case fault.Restart:
		u, ok := m.(node.Undoable)
		if !ok {
			r.plane.SkipLast(k)
			break
		}
		u.Restore(r.initSnaps[k])
		m.Init(em) // the restart's wake-up; its sends are counted normally
	case fault.Corrupt:
		u, ok := m.(node.Undoable)
		if !ok {
			r.plane.SkipLast(k)
			break
		}
		u.Restore(r.plane.Perturb(k, u.SnapshotTo(nil)))
	}
	return true
}

func (r *netRuntime) nodeLoop(k int) {
	defer r.wg.Done()
	m := r.machines[k]
	var em node.PulseEmitter = emitter{r: r, from: k}

	m.Init(em)
	alive := r.applyNodeFault(k, m, em)
	r.initsLeft.Add(-1)
	r.noteQuiet()
	if !alive {
		r.offerHeal(k)
		return
	}
	r.consume(k, m, em)
}

// consume runs node k's delivery loop until termination, shutdown, or a
// fault-plane crash (which it hands to the supervisor when one exists).
// em is already the node.PulseEmitter interface value: converting the
// two-word emitter allocates, so callers convert once per loop, not
// once per delivery.
func (r *netRuntime) consume(k int, m node.PulseMachine, em node.PulseEmitter) {
	in0 := r.conduits[2*k+0]
	in1 := r.conduits[2*k+1]
	for {
		st := m.Status()
		if st.Terminated || st.Err != nil {
			if st.Terminated {
				r.mu.Lock()
				r.termOrder = append(r.termOrder, k)
				r.mu.Unlock()
			}
			return
		}
		// Gate each port by Ready: a nil channel is never selected, which
		// realizes the model's "the node does not poll this queue".
		var c0, c1 <-chan pulse.Pulse
		if m.Ready(pulse.Port0) {
			c0 = in0.out
		}
		if m.Ready(pulse.Port1) {
			c1 = in1.out
		}
		select {
		case <-r.stop:
			return
		case _, ok := <-c0:
			if !ok {
				return
			}
			m.OnMsg(pulse.Port0, pulse.Pulse{}, em)
			alive := r.applyNodeFault(k, m, em)
			r.delivered.Add(1)
			r.inflight.Add(-1)
			r.noteQuiet()
			if !alive {
				r.offerHeal(k)
				return
			}
		case _, ok := <-c1:
			if !ok {
				return
			}
			m.OnMsg(pulse.Port1, pulse.Pulse{}, em)
			alive := r.applyNodeFault(k, m, em)
			r.delivered.Add(1)
			r.inflight.Add(-1)
			r.noteQuiet()
			if !alive {
				r.offerHeal(k)
				return
			}
		}
	}
}

// offerHeal hands a crashed node to the supervisor. The WaitGroup slot for
// the node's next incarnation is reserved BEFORE the handoff, so wg.Wait
// cannot pass between the old goroutine's exit and the revival; a shutdown
// racing the handoff releases the reservation instead.
func (r *netRuntime) offerHeal(k int) {
	if !r.supervise {
		return
	}
	r.wg.Add(1)
	select {
	case r.crashCh <- k:
	case <-r.stop:
		r.wg.Done()
	}
}

// superviseLoop heals crashes until shutdown.
func (r *netRuntime) superviseLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case k := <-r.crashCh:
			r.heal(k)
		}
	}
}

// heal revives crashed node k per the restore policy and re-spawns its
// consume loop on the same conduits (whose pumps never stopped, so the
// node's queued pulses — still counted in flight — are waiting for it).
// The revived node re-enters the quiescence protocol immediately: once it
// drains its queue the conservation counter can reach zero again. Owns
// the inherited WaitGroup slot and either passes it to the new goroutine
// or releases it on an unhealable crash.
func (r *netRuntime) heal(k int) {
	m := r.machines[k]
	var em node.PulseEmitter = emitter{r: r, from: k}
	if r.policy == RestoreInit {
		u, ok := m.(node.Undoable)
		if !ok || r.initSnaps[k] == nil {
			r.note("unhealable-crash", fmt.Sprintf("node %d is not restorable; left dead", k))
			r.wg.Done()
			return
		}
		u.Restore(r.initSnaps[k])
	}
	r.crashed[k] = false
	r.mu.Lock()
	r.heals = append(r.heals, k)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		if r.policy == RestoreInit {
			// The revival's wake-up; its sends are counted normally, so the
			// conservation ledger absorbs the amnesiac restart like any
			// other init. The plane may crash the node again right here.
			m.Init(em)
			if !r.applyNodeFault(k, m, em) {
				r.offerHeal(k)
				return
			}
		}
		r.consume(k, m, em)
	}()
}

// note appends a structured run-log entry.
func (r *netRuntime) note(code, detail string) {
	r.mu.Lock()
	r.notes = append(r.notes, RunNote{Code: code, Detail: detail})
	r.mu.Unlock()
}

func (r *netRuntime) collect() Result {
	n := r.topo.N()
	res := Result{
		N:         n,
		Sent:      r.sent.Load(),
		Delivered: r.delivered.Load(),
		SentCW:    r.sentCW.Load(),
		SentCCW:   r.sentCCW.Load(),
		Quiescent: r.inflight.Load() == 0 && r.initsLeft.Load() == 0,
		Leader:    -1,
		Statuses:  make([]node.Status, n),
	}
	res.AllTerminated = true
	for k := 0; k < n; k++ {
		st := r.machines[k].Status()
		res.Statuses[k] = st
		if st.State == node.StateLeader {
			res.Leaders = append(res.Leaders, k)
		}
		if !st.Terminated {
			res.AllTerminated = false
		}
	}
	if len(res.Leaders) == 1 {
		res.Leader = res.Leaders[0]
	}
	r.mu.Lock()
	res.TerminationOrder = append(res.TerminationOrder, r.termOrder...)
	res.Heals = append(res.Heals, r.heals...)
	res.Notes = append(res.Notes, r.notes...)
	r.mu.Unlock()
	return res
}

// stallReport assembles the watchdog diagnosis. Called after wg.Wait, so
// machine and crash state reads are ordered after all goroutine writes.
func (r *netRuntime) stallReport() StallReport {
	rep := StallReport{
		InFlight:  r.inflight.Load(),
		Unstarted: int(r.initsLeft.Load()),
	}
	for k := 0; k < r.topo.N(); k++ {
		q0 := r.conduits[2*k+0].queued()
		q1 := r.conduits[2*k+1].queued()
		crashed := r.crashed != nil && r.crashed[k]
		if q0 == 0 && q1 == 0 && !crashed {
			continue
		}
		rep.Nodes = append(rep.Nodes, NodeStall{
			Node:    k,
			Queued:  [2]int{q0, q1},
			Crashed: crashed,
			Status:  r.machines[k].Status(),
		})
	}
	return rep
}

// conduit is an unbounded FIFO pulse channel. Pulses carry no content, so
// the backlog is a counter; a tiny pump goroutine offers pulses on out
// whenever the backlog is positive. push never blocks. pushed/taken shadow
// the backlog in atomics so the watchdog can read queue occupancy.
type conduit struct {
	in  chan pulse.Pulse //oblint:chandir send
	out chan pulse.Pulse //oblint:chandir recv

	done   chan struct{}
	once   sync.Once
	jitter uint64 // 0 = no chaos; otherwise the channel's jitter state

	// preDeliver, when set, is consulted exactly once per offered pulse
	// and returns extra (injected) pulses to add to the backlog.
	preDeliver func() int

	pushed atomic.Int64
	taken  atomic.Int64
}

func newConduit(jitter uint64) *conduit {
	c := &conduit{
		in:     make(chan pulse.Pulse, 1),
		out:    make(chan pulse.Pulse),
		done:   make(chan struct{}),
		jitter: jitter,
	}
	go c.pump()
	return c
}

func (c *conduit) push() {
	c.pushed.Add(1)
	select {
	case c.in <- pulse.Pulse{}:
	case <-c.done:
	}
}

func (c *conduit) close() { c.once.Do(func() { close(c.done) }) }

// queued returns the undelivered pulse count (approximate while the pump
// is running; exact once it has stopped).
func (c *conduit) queued() int { return int(c.pushed.Load() - c.taken.Load()) }

// shake injects pseudo-random scheduling jitter before a delivery.
func (c *conduit) shake() {
	if c.jitter == 0 {
		return
	}
	// xorshift64 step.
	x := c.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.jitter = x
	switch x % 16 {
	case 0:
		time.Sleep(time.Duration(x%5) * time.Microsecond)
	case 1, 2, 3:
		for i := uint64(0); i < x%8; i++ {
			runtime.Gosched()
		}
	}
}

func (c *conduit) pump() {
	backlog := 0
	counted := false // plane consulted for the pulse currently on offer
	for {
		var out chan<- pulse.Pulse
		if backlog > 0 {
			if !counted {
				counted = true
				if c.preDeliver != nil {
					if extra := c.preDeliver(); extra > 0 {
						backlog += extra
						c.pushed.Add(int64(extra))
					}
				}
			}
			c.shake()
			out = c.out
		}
		select {
		case <-c.done:
			return
		case <-c.in:
			backlog++
		case out <- pulse.Pulse{}:
			backlog--
			counted = false
			c.taken.Add(1)
		}
	}
}
