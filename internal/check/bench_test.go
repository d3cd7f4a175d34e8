package check_test

import (
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/ring"
)

// BenchmarkExhaustiveClone runs the same exploration through the clone
// (reference) engine with the exact full-key memo: the pre-overhaul
// configuration, kept measurable so the undo+fingerprint speedup stays a
// number rather than a claim.
func BenchmarkExhaustiveClone(b *testing.B) {
	ids := []uint64{3, 1, 2}
	topo, err := ring.Oriented(3)
	if err != nil {
		b.Fatal(err)
	}
	var states int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := check.Exhaustive(check.Config{
			Topo:        topo,
			NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
			Engine:      check.EngineClone,
			Memo:        check.MemoFullKeys,
		})
		if err != nil {
			b.Fatal(err)
		}
		states = rep.StatesVisited
	}
	b.ReportMetric(float64(states), "states/op")
}
