package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/stats"
	"coleader/internal/xrand"
)

// E15 measures Algorithm 1 at scale on the sequential batch engine.
//
// E15a is the cost sweep: Algorithm 1 over geometric ID values (ID_max
// concentrates around (c+2)·log2 n, duplicates tolerated per Lemma 16)
// costs exactly n·ID_max pulses — Corollary 13 verbatim — which makes
// the sampled-ID election Theta(n log n) and million-node rings
// feasible. The fit column divides measured pulses by n·log2 n; a flat
// constant across three orders of magnitude is the claimed growth rate.
// The runs use pointer machines under sim.WithBatching and the Heaviest
// scheduler; the transitions column counts the batch transitions that
// moved those pulses. (The in-test sweep stops at n=65536 to stay fast;
// EXPERIMENTS.md records the n=10^6 and 10^7 cmd/ringsim runs of the
// same workload.)
func E15(seed int64) ([]*stats.Table, error) {
	sweep, err := e15Sweep(seed)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{sweep}, nil
}

// e15GeometricIDs draws geometric ID values: Pr[ID >= k+1] = 2^{-k/(c+2)}.
func e15GeometricIDs(rng *rand.Rand, n int, c float64) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = 1 + uint64(core.SampleBitCount(rng, c))
	}
	return ids
}

func e15Sweep(seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		"E15a — batched scale sweep: Algorithm 1 over geometric IDs costs exactly n·ID_max = Theta(n log n) pulses",
		"n", "ID_max", "pulses", "n·ID_max exact", "pulses/(n·log2 n)", "transitions", "quiescent")
	for _, n := range []int{1024, 8192, 65536} {
		rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE15A, uint64(n))))
		ids := e15GeometricIDs(rng, n, 2)
		idMax := ring.MaxID(ids)
		pred := core.PredictedAlg1Pulses(n, idMax)
		topo, err := ring.Oriented(n)
		if err != nil {
			return nil, err
		}
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithBatching())
		if err != nil {
			return nil, err
		}
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			return nil, fmt.Errorf("E15a n=%d: %w", n, err)
		}
		transitions, _ := s.RunsCoalesced()
		exact := "yes"
		if res.Sent != pred {
			exact = "NO"
		}
		fit := float64(res.Sent) / (float64(n) * math.Log2(float64(n)))
		t.AddRow(n, idMax, res.Sent, exact, stats.FormatFloat(fit), transitions, res.Quiescent)
	}
	return t, nil
}

// e15Outcome is the schedule-invariant slice of a Result: the election
// outcome and the exact pulse totals, excluding order-dependent fields
// (TerminationOrder) that legitimately vary across schedules.
type e15Outcome struct {
	leader   int
	leaders  []int
	statuses []node.Status
	sent     uint64
	quiesc   bool
}

func e15Slice(r sim.Result) e15Outcome {
	return e15Outcome{
		leader:   r.Leader,
		leaders:  r.Leaders,
		statuses: r.Statuses,
		sent:     r.Sent,
		quiesc:   r.Quiescent,
	}
}
