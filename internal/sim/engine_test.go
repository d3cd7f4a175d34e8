package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// instance is one algorithm/topology configuration exercised by the
// engine differentials. pulses is the paper's exact message complexity
// for it.
type instance struct {
	name     string
	topo     func() (ring.Topology, error)
	machines func() ([]node.PulseMachine, error)
	pulses   uint64
	budget   uint64
}

// build returns a fresh ring of inst's machines: pointer machines as the
// core constructors return them or, when flat is set, the same machines
// behind flatState.
func (inst instance) build(flat bool) ([]node.PulseMachine, error) {
	ms, err := inst.machines()
	if err != nil || !flat {
		return ms, err
	}
	twins, err := inst.machines()
	if err != nil {
		return nil, err
	}
	return flatten(ms, twins), nil
}

// flatState runs a machine whose state lives between transitions only in
// its node.Undoable snapshot, the flat byte encoding the exhaustive
// explorer keeps in its undo arena. Each transition restores the snapshot
// into the other of two identically built machines, runs the handler
// there and snapshots the result back, so a mutable field that SnapshotTo
// or Restore misses goes stale and the run diverges from the pointer
// machine's.
type flatState struct {
	ms   [2]undoMachine
	cur  int
	snap []byte
}

// undoMachine is what flatState needs of a core machine.
type undoMachine interface {
	node.BatchMachine
	node.Undoable
}

// flatten pairs ms[k] with its identically built twin twins[k].
func flatten(ms, twins []node.PulseMachine) []node.PulseMachine {
	out := make([]node.PulseMachine, len(ms))
	for k := range ms {
		f := &flatState{ms: [2]undoMachine{ms[k].(undoMachine), twins[k].(undoMachine)}}
		f.snap = f.ms[0].SnapshotTo(make([]byte, 0, 64))
		out[k] = f
	}
	return out
}

// next restores the snapshot into the idle twin and makes it current.
func (f *flatState) next() undoMachine {
	f.cur = 1 - f.cur
	f.ms[f.cur].Restore(f.snap)
	return f.ms[f.cur]
}

func (f *flatState) save() { f.snap = f.ms[f.cur].SnapshotTo(f.snap[:0]) }

func (f *flatState) Init(e node.PulseEmitter) {
	f.next().Init(e)
	f.save()
}

func (f *flatState) OnMsg(p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	f.next().OnMsg(p, m, e)
	f.save()
}

func (f *flatState) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	n := f.next().OnPulses(p, k, e)
	f.save()
	return n
}

func (f *flatState) Ready(p pulse.Port) bool { return f.ms[f.cur].Ready(p) }

func (f *flatState) Status() node.Status { return f.ms[f.cur].Status() }

// checkRestoredOutputs fails t unless every flatState node of ms, its
// final snapshot restored into a freshly built machine, reports the
// Status res recorded for it: election state and orientation output
// included. A field that a node's last transition rewrites (Alg3's
// oriented) stays current in the machines that ran even when Restore
// misses it; only a restore into a fresh machine shows the gap.
func checkRestoredOutputs(t *testing.T, inst instance, ms []node.PulseMachine, res sim.Result) {
	t.Helper()
	fresh, err := inst.machines()
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range ms {
		u := fresh[k].(undoMachine)
		u.Restore(m.(*flatState).snap)
		if got := u.Status(); !reflect.DeepEqual(got, res.Statuses[k]) {
			t.Fatalf("node %d restored from its final snapshot reports %+v, the run ended with %+v", k, got, res.Statuses[k])
		}
	}
}

// orientedInstance builds an Algorithm 1 or 2 instance on an oriented
// ring carrying ids.
func orientedInstance(name string, alg int, ids []uint64) instance {
	n := len(ids)
	topo := func() (ring.Topology, error) { return ring.Oriented(n) }
	inst := instance{name: name, topo: topo}
	switch alg {
	case 1:
		inst.machines = func() ([]node.PulseMachine, error) {
			t, err := topo()
			if err != nil {
				return nil, err
			}
			return core.Alg1Machines(t, ids)
		}
		inst.pulses = core.PredictedAlg1Pulses(n, slices.Max(ids))
	case 2:
		inst.machines = func() ([]node.PulseMachine, error) {
			t, err := topo()
			if err != nil {
				return nil, err
			}
			return core.Alg2Machines(t, ids)
		}
		inst.pulses = core.PredictedAlg2Pulses(n, slices.Max(ids))
	default:
		panic("orientedInstance: algorithm must be 1 or 2")
	}
	inst.budget = 4*inst.pulses + 1024
	return inst
}

// alg3Instance builds an Algorithm 3 instance under scheme on the ring
// whose node k has its ports swapped when flips[k] is set.
func alg3Instance(name string, flips []bool, ids []uint64, scheme core.IDScheme) instance {
	n := len(ids)
	pulses := core.PredictedAlg3Pulses(n, slices.Max(ids), scheme)
	return instance{
		name: name,
		topo: func() (ring.Topology, error) { return ring.NonOriented(flips) },
		machines: func() ([]node.PulseMachine, error) {
			return core.Alg3Machines(n, ids, scheme)
		},
		pulses: pulses,
		budget: 4*pulses + 1024,
	}
}

// instances are the engine differentials' shared configurations. The
// self-ring (n = 1, both ports wired to each other) and two-node rings
// are legal in the paper's model (Section 2) and exercise the smallest
// wirings the engine accepts.
func instances() []instance {
	return []instance{
		orientedInstance("alg1/self-ring", 1, []uint64{3}),
		orientedInstance("alg2/self-ring", 2, []uint64{3}),
		alg3Instance("alg3/self-ring", []bool{false}, []uint64{3}, core.SchemeSuccessor),
		alg3Instance("alg3/self-ring-flipped", []bool{true}, []uint64{2}, core.SchemeDoubled),
		orientedInstance("alg1/two-nodes", 1, []uint64{1, 4}),
		orientedInstance("alg2/two-nodes", 2, []uint64{5, 2}),
		alg3Instance("alg3/two-nodes", []bool{true, false}, []uint64{1, 3}, core.SchemeSuccessor),
		orientedInstance("alg1/dup-ids", 1, []uint64{2, 2, 1, 2}),
		orientedInstance("alg1/distinct-ids", 1, []uint64{4, 1, 6, 3, 5, 2}),
		orientedInstance("alg2/oriented", 2, []uint64{3, 1, 4, 2, 5}),
		orientedInstance("alg2/descending", 2, []uint64{6, 5, 4, 3, 2, 1}),
		alg3Instance("alg3/non-oriented", []bool{true, false, true}, []uint64{2, 1, 3}, core.SchemeSuccessor),
		alg3Instance("alg3/all-flipped", []bool{true, true, true, true, true}, []uint64{2, 5, 1, 4, 3}, core.SchemeSuccessor),
		alg3Instance("alg3/doubled", []bool{false, true, true, false}, []uint64{3, 1, 4, 2}, core.SchemeDoubled),
	}
}

// recordEvents is an observer option that appends a deep copy of every
// event to *events.
func recordEvents(events *[]sim.Event) sim.Option[pulse.Pulse] {
	return sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
		func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
			cp := *e
			cp.Sends = append([]sim.SendRec(nil), e.Sends...)
			*events = append(*events, cp)
			return nil
		}))
}

// compareRuns fails t unless two runs agree exactly: the same error
// text, event-for-event identical traces and DeepEqual Results.
func compareRuns(t *testing.T, label string,
	refEv []sim.Event, refRes sim.Result, refErr error,
	gotEv []sim.Event, gotRes sim.Result, gotErr error,
) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) ||
		(refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: run errors diverge: reference %v, got %v", label, refErr, gotErr)
	}
	if len(refEv) != len(gotEv) {
		t.Fatalf("%s: trace lengths diverge: reference %d events, got %d", label, len(refEv), len(gotEv))
	}
	for i := range refEv {
		if !reflect.DeepEqual(refEv[i], gotEv[i]) {
			t.Fatalf("%s: event %d diverges:\nreference %+v\ngot       %+v", label, i, refEv[i], gotEv[i])
		}
	}
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Fatalf("%s: results diverge:\nreference %+v\ngot       %+v", label, refRes, gotRes)
	}
}

// TestFlatMatchesPointerMachines is the representation differential on
// the sequential engine: for every stock scheduler, machines whose state
// lives in their flat Undoable snapshot between transitions (flatState)
// must produce an event-for-event identical trace and Result to the
// pointer machines themselves, and each node's final snapshot must
// restore to the same outputs (checkRestoredOutputs). It checks at run
// time, on every instance and schedule, that SnapshotTo and Restore
// carry a machine's whole mutable state, which the exhaustive
// explorer's undo arena relies on.
func TestFlatMatchesPointerMachines(t *testing.T) {
	for _, inst := range instances() {
		for schedName := range sim.Stock(1) {
			t.Run(inst.name+"/"+schedName, func(t *testing.T) {
				trace := func(flat bool) ([]sim.Event, sim.Result, error) {
					topo, err := inst.topo()
					if err != nil {
						t.Fatal(err)
					}
					ms, err := inst.build(flat)
					if err != nil {
						t.Fatal(err)
					}
					var events []sim.Event
					s, err := sim.New(topo, ms, sim.Stock(5)[schedName], recordEvents(&events))
					if err != nil {
						t.Fatal(err)
					}
					res, runErr := s.Run(inst.budget)
					if flat && runErr == nil {
						checkRestoredOutputs(t, inst, ms, res)
					}
					return events, res, runErr
				}
				ptrEv, ptrRes, ptrErr := trace(false)
				flatEv, flatRes, flatErr := trace(true)
				compareRuns(t, "flat", ptrEv, ptrRes, ptrErr, flatEv, flatRes, flatErr)
			})
		}
	}
}

// seededSchedulers are the stock schedulers whose picks depend on the
// seed; the others are swept once.
var seededSchedulers = map[string]bool{"random": true, "flaky": true, "hashdelay": true}

// TestScheduleConfluence pins the property the paper prices elections
// on: a content-oblivious execution is confluent, so every admissible
// schedule ends in the same configuration. For every stock scheduler
// (the seeded ones at several seeds), in both machine representations
// (pointer machines and flatState), plain and batched, the run must
// reach the outcome and pulse totals of the canonical plain
// pointer-machine run, and send exactly the paper's predicted number of
// pulses.
func TestScheduleConfluence(t *testing.T) {
	for _, inst := range instances() {
		ref := runOutcome(t, inst, sim.Canonical{}, false, false)
		if ref.Sent != inst.pulses {
			t.Fatalf("%s: canonical run sent %d pulses, the paper predicts %d", inst.name, ref.Sent, inst.pulses)
		}
		for schedName := range sim.Stock(1) {
			seeds := []int64{1}
			if seededSchedulers[schedName] {
				seeds = []int64{1, 2, 7}
			}
			for _, seed := range seeds {
				for _, flat := range []bool{false, true} {
					for _, batched := range []bool{false, true} {
						name := inst.name + "/" + schedName
						if seededSchedulers[schedName] {
							name += fmt.Sprintf("/seed=%d", seed)
						}
						if flat {
							name += "/flat"
						} else {
							name += "/pointer"
						}
						if batched {
							name += "/batched"
						} else {
							name += "/plain"
						}
						t.Run(name, func(t *testing.T) {
							got := runOutcome(t, inst, sim.Stock(seed)[schedName], flat, batched)
							if got.Sent != inst.pulses {
								t.Fatalf("sent %d pulses, the paper predicts %d", got.Sent, inst.pulses)
							}
							if got.Steps != ref.Steps ||
								got.Sent != ref.Sent ||
								got.SentCW != ref.SentCW ||
								got.SentCCW != ref.SentCCW ||
								got.Delivered != ref.Delivered ||
								got.Quiescent != ref.Quiescent ||
								got.AllTerminated != ref.AllTerminated ||
								got.Leader != ref.Leader ||
								!reflect.DeepEqual(got.Leaders, ref.Leaders) ||
								!reflect.DeepEqual(got.Statuses, ref.Statuses) {
								t.Fatalf("outcome diverges from the canonical run:\ncanonical %+v\ngot       %+v", ref, got)
							}
						})
					}
				}
			}
		}
	}
}

// runOutcome runs inst, on flat or pointer machines, to completion under
// sched and returns its Result.
func runOutcome(t *testing.T, inst instance, sched sim.Scheduler, flat, batched bool) sim.Result {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	var opts []sim.Option[pulse.Pulse]
	if batched {
		opts = append(opts, sim.WithBatching())
	}
	ms, err := inst.build(flat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sched, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(inst.budget)
	if err != nil {
		t.Fatal(err)
	}
	if flat {
		checkRestoredOutputs(t, inst, ms, res)
	}
	return res
}
