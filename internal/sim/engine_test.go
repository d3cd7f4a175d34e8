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
// engine differentials, in both machine representations: a
// pointer-machine slice (sim.New) and a struct-of-arrays bank
// (sim.NewFlat). pulses is the paper's exact message complexity for it.
type instance struct {
	name     string
	topo     func() (ring.Topology, error)
	machines func() ([]node.PulseMachine, error)
	bank     func() (node.FlatPulseMachine, error)
	pulses   uint64
	budget   uint64
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
		inst.bank = func() (node.FlatPulseMachine, error) {
			t, err := topo()
			if err != nil {
				return nil, err
			}
			return core.NewFlatAlg1(t, ids)
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
		inst.bank = func() (node.FlatPulseMachine, error) {
			t, err := topo()
			if err != nil {
				return nil, err
			}
			return core.NewFlatAlg2(t, ids)
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
		bank: func() (node.FlatPulseMachine, error) {
			return core.NewFlatAlg3(n, ids, scheme)
		},
		pulses: pulses,
		budget: 4*pulses + 1024,
	}
}

func instances() []instance {
	return []instance{
		orientedInstance("alg1/dup-ids", 1, []uint64{2, 2, 1, 2}),
		orientedInstance("alg1/distinct-ids", 1, []uint64{4, 1, 6, 3, 5, 2}),
		orientedInstance("alg2/oriented", 2, []uint64{3, 1, 4, 2, 5}),
		orientedInstance("alg2/descending", 2, []uint64{6, 5, 4, 3, 2, 1}),
		alg3Instance("alg3/non-oriented", []bool{true, false, true}, []uint64{2, 1, 3}, core.SchemeSuccessor),
		alg3Instance("alg3/all-flipped", []bool{true, true, true, true, true}, []uint64{2, 5, 1, 4, 3}, core.SchemeSuccessor),
		alg3Instance("alg3/doubled", []bool{false, true, true, false}, []uint64{3, 1, 4, 2}, core.SchemeDoubled),
	}
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
// the sequential engine: for every stock scheduler, a flat
// struct-of-arrays bank driven through sim.NewFlat must produce an
// event-for-event identical trace and Result to the pointer-machine
// slice it mirrors.
func TestFlatMatchesPointerMachines(t *testing.T) {
	for _, inst := range instances() {
		for schedName := range sim.Stock(1) {
			t.Run(inst.name+"/"+schedName, func(t *testing.T) {
				trace := func(flat bool) ([]sim.Event, sim.Result, error) {
					topo, err := inst.topo()
					if err != nil {
						t.Fatal(err)
					}
					var events []sim.Event
					obs := sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
						func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
							cp := *e
							cp.Sends = append([]sim.SendRec(nil), e.Sends...)
							events = append(events, cp)
							return nil
						}))
					sched := sim.Stock(5)[schedName]
					var s *sim.Sim[pulse.Pulse]
					if flat {
						bank, err := inst.bank()
						if err != nil {
							t.Fatal(err)
						}
						s, err = sim.NewFlat(topo, bank, sched, obs)
						if err != nil {
							t.Fatal(err)
						}
					} else {
						ms, err := inst.machines()
						if err != nil {
							t.Fatal(err)
						}
						s, err = sim.New(topo, ms, sched, obs)
						if err != nil {
							t.Fatal(err)
						}
					}
					res, runErr := s.Run(inst.budget)
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
// (the seeded ones at several seeds), in both machine representations,
// plain and batched, the run must reach the outcome and pulse totals of
// the canonical pointer-machine run, and send exactly the paper's
// predicted number of pulses.
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

// runOutcome runs inst to completion under sched and returns its Result.
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
	var s *sim.Sim[pulse.Pulse]
	if flat {
		bank, err := inst.bank()
		if err != nil {
			t.Fatal(err)
		}
		s, err = sim.NewFlat(topo, bank, sched, opts...)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		ms, err := inst.machines()
		if err != nil {
			t.Fatal(err)
		}
		s, err = sim.New(topo, ms, sched, opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run(inst.budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
