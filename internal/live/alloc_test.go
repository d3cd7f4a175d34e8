package live_test

import (
	"testing"

	"coleader/internal/core"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/ring"
)

// TestRunAllocsPerPulse bounds the live runtime's allocations on a
// 64-node Algorithm 2 election: at most one per four pulses, construction
// of the conduits and goroutines included. A per-delivery allocation —
// such as converting the node's emitter to node.PulseEmitter on every
// handler call — costs about one per pulse and fails it.
func TestRunAllocsPerPulse(t *testing.T) {
	const n, runs = 64, 3
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
	// Machines are single-use, so every call (AllocsPerRun adds one
	// warm-up) gets a set built outside the measurement.
	sets := make([][]node.PulseMachine, runs+1)
	for i := range sets {
		if sets[i], err = core.Alg2Machines(topo, ids); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := live.Run(topo, sets[next])
		next++
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != pred {
			t.Fatalf("sent %d pulses, want %d", res.Sent, pred)
		}
	})
	if limit := 0.25 * float64(pred); allocs > limit {
		t.Fatalf("live run of %d pulses allocated %.0f objects, want <= %.0f (delivery must not allocate)",
			pred, allocs, limit)
	}
}
