package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// Timing wrappers. Each one times the calls the engine makes across one
// layer boundary and forwards every optional interface the engine looks
// for, so the traced run takes the same engine path as the untraced one:
// a scheduler wrapper that hid sim.HeapHinted would make Heaviest scan
// every deliverable channel per pick, and a machine wrapper that hid
// node.BatchMachine would make sim.WithBatching fail.

// tracedSched times sim.Scheduler.Next.
type tracedSched struct {
	s  sim.Scheduler
	st callStat
}

func (t *tracedSched) Next(v sim.View) int {
	t0 := time.Now()
	c := t.s.Next(v)
	t.st.add(t0)
	return c
}

// tracedHintedSched is tracedSched for schedulers that ask the simulator
// for aux heaps.
type tracedHintedSched struct {
	*tracedSched
	h sim.HeapHinted
}

func (t tracedHintedSched) HeapHints() []sim.HeapHint { return t.h.HeapHints() }

// wrapSched returns the timed scheduler and its counter.
func wrapSched(s sim.Scheduler) (sim.Scheduler, *callStat) {
	ts := &tracedSched{s: s}
	if h, ok := s.(sim.HeapHinted); ok {
		return tracedHintedSched{ts, h}, &ts.st
	}
	return ts, &ts.st
}

// timedEmitter times the sends a handler makes, so that handler time can
// leave them out: a send is the engine's work (the simulator's emitter,
// the checker's collector) or the transport's (the live runtime's
// conduit push, which can block).
type timedEmitter struct {
	e  node.PulseEmitter
	st *callStat
}

func (t *timedEmitter) Send(p pulse.Port, m pulse.Pulse) {
	t0 := time.Now()
	t.e.Send(p, m)
	t.st.add(t0)
}

// timedBatchEmitter adds a timed SendRun for node.BatchEmitter.
type timedBatchEmitter struct {
	timedEmitter
	be node.BatchEmitter
}

func (t *timedBatchEmitter) SendRun(p pulse.Port, n uint64) {
	t0 := time.Now()
	t.be.SendRun(p, n)
	t.st.add(t0)
}

// handlerStat is one node's handler time: whole handler calls, and the
// sends inside them. Each node's wrapper is driven by one goroutine at a
// time (the simulator's, or the node's own in the live runtime), and the
// counters are read only after the engine call returned, so they need no
// synchronization.
type handlerStat struct {
	calls, sends callStat
	gPeak        int
}

// tracedMachine times Init and OnMsg of a pulse machine. em and bem are
// reused across calls and point at the emitter of the current call only.
type tracedMachine struct {
	m   node.PulseMachine
	st  handlerStat
	em  timedEmitter
	bem timedBatchEmitter
}

func (t *tracedMachine) emitter(e node.PulseEmitter) *timedEmitter {
	t.em = timedEmitter{e: e, st: &t.st.sends}
	return &t.em
}

func (t *tracedMachine) Init(e node.PulseEmitter) {
	t.st.gPeak = max(t.st.gPeak, runtime.NumGoroutine())
	te := t.emitter(e)
	t0 := time.Now()
	t.m.Init(te)
	t.st.calls.add(t0)
}

func (t *tracedMachine) OnMsg(p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	if t.st.calls.calls&63 == 0 {
		t.st.gPeak = max(t.st.gPeak, runtime.NumGoroutine())
	}
	te := t.emitter(e)
	t0 := time.Now()
	t.m.OnMsg(p, m, te)
	t.st.calls.add(t0)
}

func (t *tracedMachine) Ready(p pulse.Port) bool { return t.m.Ready(p) }
func (t *tracedMachine) Status() node.Status     { return t.m.Status() }

// tracedBatchMachine adds a timed OnPulses for node.BatchMachine.
type tracedBatchMachine struct {
	tracedMachine
	b node.BatchMachine
}

func (t *tracedBatchMachine) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	t.bem = timedBatchEmitter{timedEmitter{e: e, st: &t.st.sends}, e}
	t0 := time.Now()
	n := t.b.OnPulses(p, k, &t.bem)
	t.st.calls.add(t0)
	return n
}

// handlerSet is the wrappers of one ring.
type handlerSet []*handlerStat

// total sums the handler calls and sends of every node, and returns the
// highest goroutine count any of them saw.
func (hs handlerSet) total() (calls, sends callStat, gPeak int) {
	for _, h := range hs {
		calls.merge(h.calls)
		sends.merge(h.sends)
		gPeak = max(gPeak, h.gPeak)
	}
	return calls, sends, gPeak
}

// wrapMachines times every machine, keeping node.BatchMachine exactly
// where the original machine has it.
func wrapMachines(ms []node.PulseMachine) ([]node.PulseMachine, handlerSet) {
	out := make([]node.PulseMachine, len(ms))
	hs := make(handlerSet, len(ms))
	for k, m := range ms {
		if b, ok := m.(node.BatchMachine); ok {
			w := &tracedBatchMachine{tracedMachine: tracedMachine{m: m}, b: b}
			out[k], hs[k] = w, &w.st
			continue
		}
		w := &tracedMachine{m: m}
		out[k], hs[k] = w, &w.st
	}
	return out, hs
}

// checkStat is the checker-facing boundaries of one machine copy.
type checkStat struct {
	handler, sends, snap, restore, key callStat
}

func (c *checkStat) merge(o *checkStat) {
	c.handler.merge(o.handler)
	c.sends.merge(o.sends)
	c.snap.merge(o.snap)
	c.restore.merge(o.restore)
	c.key.merge(o.key)
}

// checkStats owns the counters of every machine copy an exploration
// makes. The parallel explorer hands cloned states between workers, so
// each copy gets counters of its own (written by whichever worker holds
// that copy) and they are summed once the exploration has returned.
type checkStats struct {
	mu  sync.Mutex
	all []*checkStat
}

func (cs *checkStats) fresh() *checkStat {
	st := &checkStat{}
	cs.mu.Lock()
	cs.all = append(cs.all, st)
	cs.mu.Unlock()
	return st
}

func (cs *checkStats) total() checkStat {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var t checkStat
	for _, st := range cs.all {
		t.merge(st)
	}
	return t
}

// checkMachine times a machine as the exhaustive checker drives it:
// handlers, undo snapshots and restores, and binary state keys. It
// implements node.Cloneable, node.Undoable and node.KeyAppender, so
// wrapCheckMachines accepts only machines that implement all three.
type checkMachine struct {
	m  node.Cloneable[pulse.Pulse]
	u  node.Undoable
	ka node.KeyAppender
	st *checkStat
	cs *checkStats
	em timedEmitter
}

func (t *checkMachine) Init(e node.PulseEmitter) {
	t.em = timedEmitter{e: e, st: &t.st.sends}
	t0 := time.Now()
	t.m.Init(&t.em)
	t.st.handler.add(t0)
}

func (t *checkMachine) OnMsg(p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	t.em = timedEmitter{e: e, st: &t.st.sends}
	t0 := time.Now()
	t.m.OnMsg(p, m, &t.em)
	t.st.handler.add(t0)
}

func (t *checkMachine) Ready(p pulse.Port) bool { return t.m.Ready(p) }
func (t *checkMachine) Status() node.Status     { return t.m.Status() }
func (t *checkMachine) StateKey() string        { return t.m.StateKey() }

// CloneMachine returns a wrapped clone with counters of its own.
func (t *checkMachine) CloneMachine() node.Machine[pulse.Pulse] {
	c, err := newCheckMachine(t.m.CloneMachine(), t.cs)
	if err != nil {
		panic(err) // a clone lost an interface its original has: a machine bug
	}
	return c
}

func (t *checkMachine) AppendStateKey(dst []byte) []byte {
	t0 := time.Now()
	dst = t.ka.AppendStateKey(dst)
	t.st.key.add(t0)
	return dst
}

func (t *checkMachine) SnapshotTo(buf []byte) []byte {
	t0 := time.Now()
	buf = t.u.SnapshotTo(buf)
	t.st.snap.add(t0)
	return buf
}

func (t *checkMachine) Restore(snap []byte) {
	t0 := time.Now()
	t.u.Restore(snap)
	t.st.restore.add(t0)
}

func newCheckMachine(m node.PulseMachine, cs *checkStats) (*checkMachine, error) {
	c, ok := m.(node.Cloneable[pulse.Pulse])
	u, okU := m.(node.Undoable)
	ka, okK := m.(node.KeyAppender)
	if !ok || !okU || !okK {
		return nil, fmt.Errorf("perfbench: %T must implement node.Cloneable, node.Undoable and node.KeyAppender to be traced in the checker", m)
	}
	return &checkMachine{m: c, u: u, ka: ka, st: cs.fresh(), cs: cs}, nil
}

// wrapCheckMachines wraps a root machine slice for the checker.
func wrapCheckMachines(ms []node.PulseMachine, cs *checkStats) ([]node.PulseMachine, error) {
	out := make([]node.PulseMachine, len(ms))
	for k, m := range ms {
		w, err := newCheckMachine(m, cs)
		if err != nil {
			return nil, err
		}
		out[k] = w
	}
	return out, nil
}

// copyCost measures what wrapping one machine copy allocates, counter
// registration included: the tracer's share of a traced exploration's
// allocations.
func copyCost(m node.PulseMachine) (bytes, objs float64) {
	const n = 4096
	cs := &checkStats{}
	before := readRuntime()
	for range n {
		if _, err := newCheckMachine(m, cs); err != nil {
			return 0, 0
		}
	}
	after := readRuntime()
	return float64(after.allocBytes-before.allocBytes) / n, float64(after.allocObjs-before.allocObjs) / n
}
