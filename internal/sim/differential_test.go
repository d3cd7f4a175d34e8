package sim_test

import (
	"fmt"
	"testing"

	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// TestOptimizedMatchesRescanReference is the scheduler-trace differential
// test for the incremental deliverable set: every stock scheduler, across
// seeds and every shared engine instance, must produce an event-for-event
// identical trace (and identical Result) on the optimized simulator and
// on the retained naive-rescan reference (WithRescanDeliverable). The
// reference recomputes the deliverable set by full scan each step and
// disables the oldest-message heap, so agreement here is evidence the
// incremental set and heap change no scheduling decision, only cost.
func TestOptimizedMatchesRescanReference(t *testing.T) {
	for _, inst := range instances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 2, 7} {
				name := fmt.Sprintf("%s/%s/seed=%d", inst.name, schedName, seed)
				t.Run(name, func(t *testing.T) {
					fast, fastRes, fastErr := runTraced(t, inst, schedName, seed, false)
					ref, refRes, refErr := runTraced(t, inst, schedName, seed, true)
					compareRuns(t, "rescan", ref, refRes, refErr, fast, fastRes, fastErr)
				})
			}
		}
	}
}

// runTraced runs one fresh simulation and returns its full event trace.
func runTraced(t *testing.T, inst instance, schedName string, seed int64, rescan bool,
) ([]sim.Event, sim.Result, error) {
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
	opts := []sim.Option[pulse.Pulse]{recordEvents(&events)}
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
