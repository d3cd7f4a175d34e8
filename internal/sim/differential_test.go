package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"coleader/internal/fault"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// TestOptimizedMatchesRescanReference is the scheduler-trace differential
// test for the incremental deliverable set: every stock scheduler, across
// seeds and every shared engine instance, plain and batched, must produce
// an event-for-event identical trace (and identical Result) on the
// optimized simulator and on the retained naive-rescan reference
// (WithRescanDeliverable). The reference recomputes the deliverable set
// by full scan each step and refuses the oldest-message heap, the aux
// heaps and the weighted sampler, so agreement here is evidence the
// incremental structures change no scheduling decision, only cost.
// Subtests without a suffix run plain.
func TestOptimizedMatchesRescanReference(t *testing.T) {
	for _, inst := range instances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 2, 7} {
				for _, batched := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/seed=%d", inst.name, schedName, seed)
					var opts []sim.Option[pulse.Pulse]
					if batched {
						name += "/batched"
						opts = append(opts, sim.WithBatching())
					}
					t.Run(name, func(t *testing.T) {
						fast, fastRes, fastErr := runTraced(t, inst, schedName, seed, false, opts...)
						ref, refRes, refErr := runTraced(t, inst, schedName, seed, true, opts...)
						compareRuns(t, "rescan", ref, refRes, refErr, fast, fastRes, fastErr)
					})
				}
			}
		}
	}
}

// TestOptimizedMatchesRescanWithFaults is the rescan differential with a
// fault plane attached: for every instance, stock scheduler, fault class,
// budget (1 and 2), trigger and delivery mode (plain or batched), the
// optimized and rescan simulators, each with its own plane of the same
// schedule, must agree event for event, in Result and in the injection
// log. Crash, restart, corruption, spurious and duplicated pulses all
// move deliverability or queue counts, so this pins the incremental
// structures on every fault path.
func TestOptimizedMatchesRescanWithFaults(t *testing.T) {
	for _, inst := range instances() {
		topo, err := inst.topo()
		if err != nil {
			t.Fatal(err)
		}
		for schedName := range sim.Stock(1) {
			for _, class := range faultClasses {
				for budget := 1; budget <= 2; budget++ {
					for _, trigger := range []fault.TriggerMode{fault.TriggerLocal, fault.TriggerWindow} {
						for _, batched := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/budget=%d", inst.name, schedName, class, budget)
							if trigger == fault.TriggerWindow {
								name += "/window"
							}
							if batched {
								name += "/batched"
							}
							cfg := fault.Config{Nodes: topo.N(), Classes: fault.NewSet(class), Budget: budget, Trigger: trigger}
							t.Run(name, func(t *testing.T) {
								checkRescanFaulted(t, inst, schedName, 3, int64(budget)*7+int64(class), cfg, batched)
							})
						}
					}
				}
			}
		}
	}
}

// checkRescanFaulted runs inst under the stock scheduler schedName(seed)
// on the optimized and the rescan simulator, each with a plane built from
// (faultSeed, cfg) and batched or not, and fails t unless the runs agree
// event for event, in Result and in the injection log.
func checkRescanFaulted(t *testing.T, inst instance, schedName string, seed, faultSeed int64,
	cfg fault.Config, batched bool) {
	t.Helper()
	run := func(rescan bool) ([]fault.Injection, []sim.Event, sim.Result, error) {
		plane, err := fault.New(faultSeed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := []sim.Option[pulse.Pulse]{sim.WithFaultPlane[pulse.Pulse](plane)}
		if batched {
			opts = append(opts, sim.WithBatching())
		}
		ev, res, runErr := runTraced(t, inst, schedName, seed, rescan, opts...)
		return plane.Log(), ev, res, runErr
	}
	fastLog, fast, fastRes, fastErr := run(false)
	refLog, ref, refRes, refErr := run(true)
	compareRuns(t, "rescan", ref, refRes, refErr, fast, fastRes, fastErr)
	if !reflect.DeepEqual(refLog, fastLog) {
		t.Fatalf("injection logs diverge:\nrescan\n%soptimized\n%s", fault.FormatLog(refLog), fault.FormatLog(fastLog))
	}
}

// runTraced runs one fresh simulation with opts and returns its full
// event trace.
func runTraced(t *testing.T, inst instance, schedName string, seed int64, rescan bool,
	opts ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error) {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := inst.machines()
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	opts = append([]sim.Option[pulse.Pulse]{recordEvents(&events)}, opts...)
	if rescan {
		opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
	}
	s, err := sim.New(topo, ms, sim.Stock(seed)[schedName], opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(inst.budget)
	return events, res, runErr
}
