// Command perfbench is the repository's benchmark. It runs one named
// workload through the engines' public entry points for a fixed time,
// checks every operation's output against the paper, and prints the
// workload's metrics, ending with one JSON line:
//
//	perfbench -workload sim-pulse-alg3 -seed 3 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of untraced operations.
// With -trace 1 it spends the first half of the time on untraced
// operations and the second half on traced ones, and prints the
// per-layer metrics of the traced operations together with the tracing
// overhead against the untraced ones. See ../README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS so the load has the same shape on hosts with
// more CPUs than the two it was sized on.
const maxProcs = 2

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that leaves a
// layer idle reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"ring.build_ms", "ms"},
	{"core.machines_ms", "ms"},
	{"sim.new_ms", "ms"},
	{"mem.machines_b_per_node", "B/node"},
	{"mem.sim_b_per_node", "B/node"},
	{"mem.run_b_per_node", "B/node"},
	{"sim.pulses", "count"},
	{"sim.transitions", "count"},
	{"sim.coalescing", "ratio"},
	{"sim.sched.picks", "count"},
	{"sim.sched.ns_per_pick", "ns"},
	{"sim.sched.share", "ratio"},
	{"core.handler.calls", "count"},
	{"core.handler.ns_per_call", "ns"},
	{"core.handler.share", "ratio"},
	{"sim.engine.ns_per_transition", "ns"},
	{"sim.engine.share", "ratio"},
	{"go.allocs_per_transition", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"check.states", "count"},
	{"check.terminals", "count"},
	{"check.max_depth", "count"},
	{"check.handler.calls", "count"},
	{"check.handler.ns_per_call", "ns"},
	{"check.undo.snapshots", "count"},
	{"check.undo.snapshot_ns", "ns"},
	{"check.undo.restores", "count"},
	{"check.undo.restore_ns", "ns"},
	{"check.undo.restores_per_state", "ratio"},
	{"check.key.appends", "count"},
	{"check.key.append_ns", "ns"},
	{"check.terminal_check_ns", "ns"},
	{"check.explorer.share", "ratio"},
	{"go.bytes_per_state", "B"},
	{"go.allocs_per_state", "count"},
	{"go.mutex_wait_ms", "ms"},
	{"check.fault.states", "count"},
	{"check.fault.terminals", "count"},
	{"check.fault.max_depth", "count"},
	{"check.fault.injection_edges", "count"},
	{"check.fault.violation_edges", "count"},
	{"check.fault.clean_terminals", "count"},
	{"check.fault.degraded_terminals", "count"},
	{"check.fault.stalled_terminals", "count"},
	{"check.fault.states_per_s", "1/s"},
	{"check.fault.handler.calls", "count"},
	{"check.fault.handler.ns_per_call", "ns"},
	{"check.fault.undo.snapshots", "count"},
	{"check.fault.undo.snapshot_ns", "ns"},
	{"check.fault.undo.restores", "count"},
	{"check.fault.undo.restore_ns", "ns"},
	{"check.fault.undo.restores_per_state", "ratio"},
	{"check.fault.key.appends", "count"},
	{"check.fault.key.append_ns", "ns"},
	{"check.fault.terminal_check_ns", "ns"},
	{"check.fault.explorer.share", "ratio"},
	{"go.fault.bytes_per_state", "B"},
	{"go.fault.allocs_per_state", "count"},
	{"go.fault.mutex_wait_ms", "ms"},
	{"live.handler.calls", "count"},
	{"live.handler.ns_per_pulse", "ns"},
	{"live.cpu.ns_per_pulse", "ns"},
	{"live.transport.ns_per_pulse", "ns"},
	{"live.goroutines_peak", "count"},
	{"go.allocs_per_pulse", "count"},
	{"go.bytes_per_pulse", "B"},
	{"go.sched_latency_p50_us", "us"},
	{"go.sched_latency_p99_us", "us"},
	{"trace.timer_floor_ns", "ns"},
	{"trace.timer_pair_ns", "ns"},
	{"trace.overhead.setup_s", "ratio"},
	{"trace.overhead.op_p50_ms", "ratio"},
	{"trace.overhead.op_p90_ms", "ratio"},
	{"trace.overhead.work_per_s", "ratio"},
	{"trace.overhead.peak_rss_mb", "MB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sim-batch-1m | sim-pulse-alg3 | check-alg3 | live-alg2")
	seed := fs.Int64("seed", 3, "workload seed: the inputs are generated from it")
	seconds := fs.Float64("seconds", 20, "how long to measure; the last operation may run past it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced operations; 1: per-layer metrics of traced ones")
	traceDir := fs.String("trace-dir", "", "directory for the traced run's spans as JSON (empty: keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "provenance %s\n", strings.Join(provenance(), " "))
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	for _, p := range w.params() {
		fmt.Fprintf(out, "param %s\n", p)
	}

	steal0, total0 := hostCPU()

	var ref []count
	if *trace == 0 {
		ph := measure(w, *seconds, nil, 0, &ref, out)
		e2e := ph.endToEnd(peakRSSMB())
		printCounts(out, ref)
		printNamed(out, *name, ph, e2e)
		printSteal(out, steal0, total0)
		emit(out, ph.failed == 0, ph.attempted, ph.failed, endToEnd, e2e)
		return 0
	}

	tc := calibrateTimer()
	plain := measure(w, *seconds/2, nil, 0, &ref, out)
	rssPlain := peakRSSMB()
	e2ePlain := plain.endToEnd(rssPlain)
	tr := newTracer(tc, plain.engineMedians())
	root := tr.begin(*name, 0)
	traced := measure(w, *seconds/2, tr, root, &ref, out)
	tr.end(root)
	rssTraced := peakRSSMB()
	e2eTraced := traced.endToEnd(rssTraced)

	printCounts(out, ref)
	fmt.Fprintln(out, "untraced:")
	printNamed(out, *name, plain, e2ePlain)
	fmt.Fprintln(out, "traced:")
	printNamed(out, *name, traced, e2eTraced)
	layers := traced.layers()
	layers["trace.timer_floor_ns"] = tc.floor
	layers["trace.timer_pair_ns"] = tc.pair
	for _, m := range endToEnd {
		if m.name == "peak_rss_mb" {
			layers["trace.overhead.peak_rss_mb"] = rssTraced - rssPlain
			continue
		}
		a, b := e2ePlain[m.name], e2eTraced[m.name]
		if m.name == "work_per_s" {
			a, b = b, a // higher is better: overhead is how much lower the traced rate is
		}
		layers["trace.overhead."+m.name] = b/a - 1
	}
	tr.summary(out)
	if *traceDir != "" {
		path, err := tr.write(*traceDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err != nil {
			fmt.Fprintf(out, "FAIL writing spans: %v\n", err)
			traced.failed++
		} else {
			fmt.Fprintf(out, "spans %s\n", path)
		}
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	printSteal(out, steal0, total0)
	emit(out, failed == 0, attempted, failed, perLayer, layers)
	return 0
}

// phase is the operations of one timed stretch.
type phase struct {
	samples           []sample
	attempted, failed int
}

// measure repeats the workload's operation, one at a time, until the
// given time has passed (at least once). An operation fails when it
// returns an error (the engine's, a timeout, or a failed output check)
// or when its exact counts differ from ref, which the first successful
// operation sets. Every failure is printed.
func measure(w workload, seconds float64, tr *tracer, parent int, ref *[]count, log io.Writer) phase {
	var ph phase
	start := time.Now()
	for {
		// Each operation starts from a collected heap with the freed
		// memory returned to the OS, so that peak RSS is one operation's
		// and does not creep with the number of operations a run fits.
		debug.FreeOSMemory()
		id := tr.begin("op", parent)
		smp, err := w.op(tr, id)
		tr.end(id)
		ph.attempted++
		if err == nil {
			if *ref == nil {
				*ref = smp.counts
			} else if !slices.Equal(*ref, smp.counts) {
				err = fmt.Errorf("exact counts changed: %v, first operation had %v", smp.counts, *ref)
			}
		}
		if err != nil {
			ph.failed++
			fmt.Fprintf(log, "FAIL operation %d: %v\n", ph.attempted, err)
		} else {
			smp.result = nil // a 2^20-node Result is 48 MB; keep only the figures
			ph.samples = append(ph.samples, smp)
		}
		if time.Since(start).Seconds() >= seconds {
			return ph
		}
	}
}

func (ph phase) column(f func(sample) float64) []float64 {
	xs := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		xs[i] = f(s)
	}
	return xs
}

// endToEnd computes the end-to-end metrics: medians over the phase's
// operations, and the 90th percentile of their op times.
func (ph phase) endToEnd(rssMB float64) map[string]float64 {
	ops := ph.column(func(s sample) float64 { return float64(s.opNs) / 1e6 })
	return map[string]float64{
		"setup_s":     median(ph.column(func(s sample) float64 { return float64(s.setupNs) / 1e9 })),
		"op_p50_ms":   median(ops),
		"op_p90_ms":   p90(ops),
		"work_per_s":  median(ph.column(func(s sample) float64 { return s.work / (float64(s.workNs) / 1e9) })),
		"peak_rss_mb": rssMB,
	}
}

// engineMedians returns the median time of each engine call.
func (ph phase) engineMedians() map[string]float64 {
	out := map[string]float64{}
	for _, s := range ph.samples {
		for name := range s.engines {
			if _, done := out[name]; !done {
				out[name] = median(ph.column(func(s sample) float64 { return float64(s.engines[name]) }))
			}
		}
	}
	return out
}

// layers returns the median over the phase's operations of every
// per-layer metric, with 0 for the layers the workload leaves idle.
func (ph phase) layers() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = median(ph.column(func(s sample) float64 { return s.layers[m.name] }))
	}
	return out
}

func printCounts(w io.Writer, counts []count) {
	for _, c := range counts {
		fmt.Fprintf(w, "count %s %d\n", c.name, c.v)
	}
}

// printNamed prints the end-to-end figures under the names the workload
// table uses: elect_* and pulses_per_s for elections, states_per_s and
// fault_states_per_s for the checker, and the error rate. The tail is the
// highest percentile with at least ten operations beyond it; op_p90_ms
// stands in for it in the result line because on a shared two-CPU host
// that percentile does not repeat from run to run within any usable
// bound.
func printNamed(w io.Writer, name string, ph phase, e2e map[string]float64) {
	ops := ph.column(func(s sample) float64 { return float64(s.opNs) / 1e6 })
	tailMs, pct, ok := tail(ops)
	tailNote := fmt.Sprintf("p%.2f of %d operations", pct, len(ops))
	if !ok {
		tailNote = fmt.Sprintf("max of %d operations: too few for ten beyond a percentile above the median", len(ops))
	}
	op := "elect"
	if name == "check-alg3" {
		op = "check_op" // one exploration plus one fault census
	}
	fmt.Fprintf(w, "metric setup_s %.6g s\n", e2e["setup_s"])
	fmt.Fprintf(w, "metric %s_p50_ms %.6g ms\n", op, e2e["op_p50_ms"])
	fmt.Fprintf(w, "metric %s_p90_ms %.6g ms\n", op, e2e["op_p90_ms"])
	fmt.Fprintf(w, "metric %s_tail_ms %.6g ms (%s)\n", op, tailMs, tailNote)
	if name == "check-alg3" {
		fmt.Fprintf(w, "metric states_per_s %.6g 1/s\n", e2e["work_per_s"])
		fmt.Fprintf(w, "metric fault_states_per_s %.6g 1/s\n",
			median(ph.column(func(s sample) float64 { return s.censusRate })))
	} else {
		fmt.Fprintf(w, "metric pulses_per_s %.6g 1/s\n", e2e["work_per_s"])
	}
	fmt.Fprintf(w, "metric peak_rss_mb %.6g MB\n", e2e["peak_rss_mb"])
	fmt.Fprintf(w, "metric error_rate %.6g (%d failed of %d attempted)\n",
		float64(ph.failed)/float64(max(ph.attempted, 1)), ph.failed, ph.attempted)
}

// emit prints the result line: the last line of standard output.
func emit(w io.Writer, correct bool, attempted, failed int, defs []metricDef, vals map[string]float64) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", line)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printSteal prints the share of the machine's CPU time since the given
// reading that the hypervisor gave to other guests: a run measured while
// it was high measured the host as much as the program.
func printSteal(w io.Writer, steal0, total0 uint64) {
	steal1, total1 := hostCPU()
	if total1 > total0 {
		fmt.Fprintf(w, "host steal_share=%.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
}

// hostCPU returns the steal and total CPU time of the machine from the
// first line of /proc/stat, in clock ticks; zeros where unavailable.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// provenance describes the host, toolchain and source the run measured.
func provenance() []string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return []string{
		"host=" + host,
		strconv.Quote("cpu=" + cpuModel()),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"commit=" + commit + dirty,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
