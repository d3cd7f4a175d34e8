package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// small returns each workload at a size that runs in well under a second.
func small() map[string]workload {
	census := censusBase.relabel(1, true)
	return map[string]workload{
		"sim-batch-1m":   newSimBatch(1<<12, 3),
		"sim-pulse-alg3": &simPulse{n: 24, seed: 3},
		"check-alg3": &checkAlg3{
			explore: census,
			census:  checkInst{ids: []uint64{2, 3, 1}, flips: []bool{false, true, false}},
			workers: 2,
		},
		"live-alg2": &liveAlg2{n: 8, seed: 3},
	}
}

// TestTracedMatchesUntraced proves the timing wrappers keep the engine
// path: a traced operation returns exactly the untraced one's results,
// exact counts and pulse totals, and its layers report work.
func TestTracedMatchesUntraced(t *testing.T) {
	busy := map[string][]string{
		"sim-batch-1m":   {"sim.sched.picks", "core.handler.calls", "sim.transitions"},
		"sim-pulse-alg3": {"sim.sched.picks", "core.handler.calls", "sim.transitions"},
		"check-alg3":     {"check.undo.restores", "check.key.appends", "check.fault.injection_edges"},
		"live-alg2":      {"live.handler.calls", "live.goroutines_peak"},
	}
	for name, w := range small() {
		t.Run(name, func(t *testing.T) {
			plain, err := w.op(nil, 0)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			tr := newTracer(calibrateTimer(), nil)
			traced, err := w.op(tr, 0)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if !reflect.DeepEqual(plain.result, traced.result) {
				t.Errorf("results differ:\nuntraced %+v\ntraced   %+v", plain.result, traced.result)
			}
			if !slices.Equal(plain.counts, traced.counts) {
				t.Errorf("counts differ: untraced %v, traced %v", plain.counts, traced.counts)
			}
			if plain.work != traced.work || plain.work == 0 {
				t.Errorf("work differs: untraced %v, traced %v", plain.work, traced.work)
			}
			for _, m := range busy[name] {
				if traced.layers[m] <= 0 {
					t.Errorf("traced layer %s = %v, want > 0", m, traced.layers[m])
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced operation recorded no spans")
			}
		})
	}
}

// plainMachine is a pulse machine without the optional interfaces.
type plainMachine struct{}

func (plainMachine) Init(node.PulseEmitter)                           {}
func (plainMachine) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (plainMachine) Ready(pulse.Port) bool                            { return false }
func (plainMachine) Status() node.Status                              { return node.Status{} }

func TestWrappersForwardInterfaces(t *testing.T) {
	if s, _ := wrapSched(sim.Heaviest{}); !implements[sim.HeapHinted](s) {
		t.Error("wrapped Heaviest lost sim.HeapHinted: the aux heap would not be installed")
	}
	if s, _ := wrapSched(sim.NewRandom(1)); implements[sim.HeapHinted](s) {
		t.Error("wrapped Random gained sim.HeapHinted")
	}

	a1, err := core.NewAlg1(3, pulse.Port1)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := wrapMachines([]node.PulseMachine{a1, plainMachine{}})
	if !implements[node.BatchMachine](ms[0]) {
		t.Error("wrapped Alg1 lost node.BatchMachine")
	}
	if implements[node.BatchMachine](ms[1]) {
		t.Error("wrapped plain machine gained node.BatchMachine")
	}

	a3, err := core.NewAlg3(2, core.SchemeSuccessor)
	if err != nil {
		t.Fatal(err)
	}
	cs := &checkStats{}
	cm, err := wrapCheckMachines([]node.PulseMachine{a3}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !implements[node.Cloneable[pulse.Pulse]](cm[0]) || !implements[node.Undoable](cm[0]) ||
		!implements[node.KeyAppender](cm[0]) {
		t.Error("checker wrapper lost node.Cloneable, node.Undoable or node.KeyAppender")
	}
	clone := cm[0].(node.Cloneable[pulse.Pulse]).CloneMachine()
	if _, ok := clone.(*checkMachine); !ok || len(cs.all) != 2 {
		t.Errorf("clone is %T with %d counter blocks; want a *checkMachine with its own", clone, len(cs.all))
	}
	if _, err := wrapCheckMachines([]node.PulseMachine{plainMachine{}}, cs); err == nil {
		t.Error("checker wrapper accepted a machine it cannot forward")
	}
}

func implements[I any](v any) bool {
	_, ok := v.(I)
	return ok
}

// TestCheckRelabelingsExploreTheSameSpace backs the check-alg3 seeding:
// every rotation and mirror image of an instance has the same state
// count.
func TestCheckRelabelingsExploreTheSameSpace(t *testing.T) {
	want := -1
	for r := range len(censusBase.ids) {
		for _, mirror := range []bool{false, true} {
			p := &checkPart{inst: censusBase.relabel(r, mirror), workers: 1}
			topo, err := p.topology()
			if err != nil {
				t.Fatal(err)
			}
			p.topo = topo
			rep, err := check.Exhaustive(p.config())
			if err != nil {
				t.Fatalf("r=%d mirror=%v: %v", r, mirror, err)
			}
			if want < 0 {
				want = rep.StatesVisited
			}
			if rep.StatesVisited != want {
				t.Errorf("r=%d mirror=%v: %d states, rotation 0 has %d", r, mirror, rep.StatesVisited, want)
			}
		}
	}
	for seed := range int64(20) {
		w := newCheckAlg3(seed, 2)
		got := slices.Clone(w.explore.ids)
		slices.Sort(got)
		if !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
			t.Errorf("seed %d: explore IDs %v are not a permutation of 1..6", seed, w.explore.ids)
		}
	}
}

// TestBatchSeedsRotateOneDraw backs the sim-batch-1m seeding: every
// seed's IDs are a rotation of the same geometric draw.
func TestBatchSeedsRotateOneDraw(t *testing.T) {
	base := (&simBatch{n: 1 << 12}).ids()
	for seed := range int64(6) {
		w := newSimBatch(1<<12, seed)
		ids := w.ids()
		if !slices.Equal(ids, w.ids()) {
			t.Fatalf("seed %d: ID draw is not deterministic", seed)
		}
		if !slices.Equal(append(ids[len(ids)-w.rotate:], ids[:len(ids)-w.rotate]...), base) {
			t.Errorf("seed %d: IDs are not the base draw rotated by %d", seed, w.rotate)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, 1); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// TestResultLine runs the command end to end on a short window and checks
// the result line's shape for both modes.
func TestResultLine(t *testing.T) {
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errb bytes.Buffer
		code := run([]string{"-workload", "live-alg2", "-seed", "5", "-seconds", "0.05", "-trace", mode.trace}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode.trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", mode.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", mode.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(mode.defs) {
			t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.defs))
		}
		for _, d := range mode.defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", mode.trace, d.name, m.Unit)
			}
			if mode.trace == "0" && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
			}
		}
	}
	if code := run([]string{"-workload", "nope"}, new(bytes.Buffer), new(bytes.Buffer)); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
