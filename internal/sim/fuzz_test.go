package sim_test

import (
	"slices"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/sim"
)

// fuzzInstance builds a small Algorithm 1, 2 or 3 ring from fuzz bytes:
// n in [1, 8] nodes, IDs in [1, 8] from idBytes (distinct for the
// algorithms that need unique IDs), and for Algorithm 3 a port flip per
// node from the IDs' high bits.
func fuzzInstance(alg, size uint8, idBytes []byte) instance {
	n := 1 + int(size%8)
	ids := make([]uint64, n)
	flips := make([]bool, n)
	seen := map[uint64]bool{}
	for k := range ids {
		var b byte
		if k < len(idBytes) {
			b = idBytes[k]
		}
		id := 1 + uint64(b%8)
		for alg%3 != 0 && seen[id] {
			id++
		}
		seen[id] = true
		ids[k], flips[k] = id, b&0x80 != 0
	}
	switch alg % 3 {
	case 0:
		return orientedInstance("fuzz/alg1", 1, ids)
	case 1:
		return orientedInstance("fuzz/alg2", 2, ids)
	default:
		return alg3Instance("fuzz/alg3", flips, ids, core.SchemeSuccessor)
	}
}

// stockNames returns the stock schedulers' names in sorted order, so a
// fuzz input indexes the same scheduler on every run.
func stockNames() []string {
	names := make([]string, 0, len(sim.Stock(1)))
	for name := range sim.Stock(1) {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// FuzzBatchedMatchesExpanded fuzzes the batched-with-faults differential
// (checkFaultedBatch): a batched run with a fault plane, expanded run by
// run, must equal a per-pulse replay of its schedule with a plane of the
// same schedule — events, Result and injection log. Inputs pick the
// algorithm, ring size, IDs, stock scheduler and its seed, the fault
// class, the plane's seed and its budget (0 to 3; 0 is the zero-budget
// identity), and mode: bit 0 selects TriggerWindow, bit 1 PerturbBytes.
func FuzzBatchedMatchesExpanded(f *testing.F) {
	names := stockNames()
	f.Add(uint8(0), uint8(3), []byte{3, 1, 4, 2}, int64(1), uint8(2), int64(7), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, alg, size uint8, ids []byte, schedSeed int64,
		class uint8, faultSeed int64, budget, mode uint8) {
		inst := fuzzInstance(alg, size, ids)
		topo, err := inst.topo()
		if err != nil {
			t.Fatal(err)
		}
		cfg := fault.Config{
			Nodes:   topo.N(),
			Classes: fault.NewSet(faultClasses[int(class)%len(faultClasses)]),
			Budget:  int(budget % 4),
		}
		if mode&1 != 0 {
			cfg.Trigger = fault.TriggerWindow
		}
		if mode&2 != 0 {
			cfg.Mode = fault.PerturbBytes
		}
		sched := sim.Stock(schedSeed)[names[uint64(schedSeed)%uint64(len(names))]]
		checkFaultedBatch(t, inst, sched, faultSeed, cfg)
	})
}

// FuzzOptimizedMatchesRescan fuzzes the incremental-vs-rescan
// differential (checkRescanFaulted): the optimized simulator and the
// rescan reference must agree event for event, in Result and in the
// injection log. Inputs pick the algorithm, ring size, IDs, stock
// scheduler (sched indexes the sorted names) and its seed, the fault
// class, the plane's seed and budget (0 to 3; 0 is the zero-budget
// identity), and mode: bit 0 selects TriggerWindow, bit 1 WithBatching,
// bit 2 PerturbBytes.
func FuzzOptimizedMatchesRescan(f *testing.F) {
	names := stockNames()
	f.Add(uint8(2), uint8(4), []byte{2, 0x85, 1, 0x84, 3}, uint8(7), int64(3), uint8(3), int64(5), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, alg, size uint8, ids []byte, sched uint8, schedSeed int64,
		class uint8, faultSeed int64, budget, mode uint8) {
		inst := fuzzInstance(alg, size, ids)
		topo, err := inst.topo()
		if err != nil {
			t.Fatal(err)
		}
		cfg := fault.Config{
			Nodes:   topo.N(),
			Classes: fault.NewSet(faultClasses[int(class)%len(faultClasses)]),
			Budget:  int(budget % 4),
		}
		if mode&1 != 0 {
			cfg.Trigger = fault.TriggerWindow
		}
		if mode&4 != 0 {
			cfg.Mode = fault.PerturbBytes
		}
		checkRescanFaulted(t, inst, names[int(sched)%len(names)], schedSeed, faultSeed, cfg, mode&2 != 0)
	})
}
