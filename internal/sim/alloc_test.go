package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"coleader/internal/core"
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
// of magnitude. The random case runs Algorithm 3 on a non-oriented n=64
// ring under the Random scheduler, whose weighted sampler may allocate
// its tree once at the first pick and nothing per pick after.
func TestRunAllocsWithoutObserver(t *testing.T) {
	const n = 64
	flips := make([]bool, n)
	for k := range flips {
		flips[k] = k%3 == 0
	}
	alg2 := orientedInstance("alg2", 2, ring.ConsecutiveIDs(n))
	alg3 := alg3Instance("alg3", flips, ring.ConsecutiveIDs(n), core.SchemeSuccessor)
	canonical := func() sim.Scheduler { return sim.Canonical{} }
	cases := []struct {
		name  string
		inst  instance
		flat  bool
		sched func() sim.Scheduler
	}{
		{"pointer", alg2, false, canonical},
		{"flat", alg2, true, canonical},
		{"random", alg3, false, func() sim.Scheduler { return sim.NewRandom(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				topo, err := tc.inst.topo()
				if err != nil {
					t.Fatal(err)
				}
				ms, err := tc.inst.build(tc.flat)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sim.New(topo, ms, tc.sched())
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(tc.inst.budget)
				if err != nil {
					t.Fatal(err)
				}
				if res.Sent != tc.inst.pulses {
					t.Fatalf("sent %d pulses, want %d", res.Sent, tc.inst.pulses)
				}
			}
			allocs := testing.AllocsPerRun(3, run)
			if allocs > 1000 {
				t.Fatalf("construction + %d-pulse run allocated %.0f objects, want <= 1000 (hot path must not allocate)",
					tc.inst.pulses, allocs)
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

// TestBatchedRunBytesPerNode pins what the batched engine's Run adds to
// the live heap, per node, on a 2^16-node Algorithm 1 ring with
// geometric IDs (ringsim -idgen geometric's draw), the Heaviest
// scheduler and batching: the FIFO buffers, grown on demand, and the
// Result the run returns. It measured 79.2 B/node on a 2-vCPU Xeon with
// Go 1.24.0; the budget holds only while a FIFO entry stays 16 B and the
// merge rule keeps each channel at about one run, and a wider entry or
// runs that stop merging push it over.
func TestBatchedRunBytesPerNode(t *testing.T) {
	const n = 1 << 16
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, n)
	for k := range ids {
		ids[k] = 1 + uint64(core.SampleBitCount(rng, 2))
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	want := core.PredictedAlg1Pulses(n, ring.MaxID(ids))
	res, err := s.Run(4*want + 1024)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(res)
	if res.Sent != want {
		t.Fatalf("sent %d pulses, want %d", res.Sent, want)
	}
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if perNode > 84 {
		t.Fatalf("Run grew the heap by %.1f B/node, want <= 84", perNode)
	}
}
