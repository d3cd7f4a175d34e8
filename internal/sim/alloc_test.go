package sim_test

import (
	"runtime"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// TestRunAllocsWithoutObserver asserts the hot path stays allocation-free
// when no observer is attached, for pointer machines and for machines
// whose state round-trips through its flat snapshot on every transition
// (flatState) alike: a full n=64 Algorithm 2 election delivers 8256
// pulses, so the bound below (1000 allocations for construction plus the
// entire run) can only hold if the per-delivery cost is zero — Event
// records, per-step deliverable slices, queue-tail reslicing or a
// snapshot buffer per transition would each blow through it by an order
// of magnitude.
func TestRunAllocsWithoutObserver(t *testing.T) {
	const n = 64
	cases := []struct {
		name  string
		build func(ring.Topology, []uint64) ([]node.PulseMachine, error)
	}{
		{"pointer", core.Alg2Machines},
		{"flat", func(topo ring.Topology, ids []uint64) ([]node.PulseMachine, error) {
			ms, err := core.Alg2Machines(topo, ids)
			if err != nil {
				return nil, err
			}
			twins, err := core.Alg2Machines(topo, ids)
			if err != nil {
				return nil, err
			}
			return flatten(ms, twins), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				topo, err := ring.Oriented(n)
				if err != nil {
					t.Fatal(err)
				}
				ids := ring.ConsecutiveIDs(n)
				ms, err := tc.build(topo, ids)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sim.New(topo, ms, sim.Canonical{})
				if err != nil {
					t.Fatal(err)
				}
				pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
				res, err := s.Run(4*pred + 1024)
				if err != nil {
					t.Fatal(err)
				}
				if res.Sent != pred {
					t.Fatalf("sent %d pulses, want %d", res.Sent, pred)
				}
			}
			allocs := testing.AllocsPerRun(3, run)
			if allocs > 1000 {
				t.Fatalf("construction + %d-pulse run allocated %.0f objects, want <= 1000 (hot path must not allocate)",
					core.PredictedAlg2Pulses(n, uint64(n)), allocs)
			}
		})
	}
}

// TestBatchedBytesPerNode pins the batched engine's construction cost:
// the heap growth across sim.New on a 2^16-node Algorithm 1 ring with
// the Heaviest scheduler and batching, per node. The budget covers the
// two channel FIFOs, the wiring caches, the deliverable bitset and the
// Heaviest heap's index; a per-channel or per-node field the batched
// path never reads (a cached endpoint, an eagerly allocated oldest-heap
// mark, a second machine table) pushes it over.
func TestBatchedBytesPerNode(t *testing.T) {
	const n = 1 << 16
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if perNode > 115 {
		t.Fatalf("sim.New grew the heap by %.1f B/node, want <= 115", perNode)
	}
}
