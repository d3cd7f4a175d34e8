package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// span is one timed interval of the traced run. Parent is the ID of the
// span that caused it (0 for a root). Attrs carry the per-call
// aggregates measured inside the span (counts and nanoseconds), which
// are too frequent to record as spans of their own.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	selfNs int64
}

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer is the untraced mode: every method is a no-op, so the
// workloads call them unconditionally. tc is the timed-boundary cost,
// and base the untraced median time of each engine call, which the
// per-layer shares are taken of.
type tracer struct {
	epoch time.Time
	spans []span
	tc    timerCost
	base  map[string]float64
}

func newTracer(tc timerCost, base map[string]float64) *tracer {
	return &tracer{epoch: time.Now(), tc: tc, base: base}
}

// on reports whether tracing is enabled.
func (t *tracer) on() bool { return t != nil }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// attr records a per-call aggregate on span id.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if sp.Attrs == nil {
		sp.Attrs = map[string]float64{}
	}
	sp.Attrs[key] = v
}

// computeSelf sets every span's self time: its duration minus the part
// of it that its children cover.
func (t *tracer) computeSelf() {
	kids := make(map[int][][2]int64)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		sp.selfNs = sp.End - sp.Start - covered(sp.Start, sp.End, kids[sp.ID])
	}
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// summary prints, per span name, the span count, total time and self time.
func (t *tracer) summary(w io.Writer) {
	t.computeSelf()
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, sp := range t.spans {
		a := byName[sp.Name]
		if a == nil {
			a = &agg{}
			byName[sp.Name] = a
			names = append(names, sp.Name)
		}
		a.n++
		a.total += sp.End - sp.Start
		a.self += sp.selfNs
	}
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(w, "span %-24s count=%-5d total_ms=%.3f self_ms=%.3f\n",
			name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// write stores the spans as JSON in dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// callStat aggregates one per-call boundary: how often it was crossed
// and the nanoseconds measured across it.
type callStat struct{ calls, ns int64 }

func (c *callStat) add(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.calls++
}

func (c *callStat) merge(o callStat) {
	c.calls += o.calls
	c.ns += o.ns
}

// timerCost is the calibrated price of one timed boundary. floor is what
// an empty timed interval reads (the clock's own latency, included in
// every measured call); pair is the full cost a boundary adds to the
// run (two clock reads plus the bookkeeping).
type timerCost struct{ floor, pair float64 }

// calibrateTimer measures the timed-boundary cost on this host as the
// median over batches of empty intervals.
func calibrateTimer() timerCost {
	const batch = 20000
	var st callStat
	var floors, pairs []float64
	for range 15 {
		st = callStat{}
		t0 := time.Now()
		for range batch {
			st.add(time.Now())
		}
		pairs = append(pairs, float64(time.Since(t0))/batch)
		floors = append(floors, float64(st.ns)/batch)
	}
	return timerCost{floor: median(floors), pair: median(pairs)}
}

// trueNs is the layer time of a boundary with the clock latency inside
// each measured interval removed.
func (tc timerCost) trueNs(c callStat) float64 {
	return max(0, float64(c.ns)-tc.floor*float64(c.calls))
}

// handlerNs is the time handlers spent in their own code: their measured
// time less the sends they made, including what timing those sends cost.
func (tc timerCost) handlerNs(calls, sends callStat) float64 {
	return max(0, tc.trueNs(calls)-tc.trueNs(sends)-tc.pair*float64(sends.calls))
}

// rtSnap is a reading of the Go runtime counters the per-layer metrics
// use.
type rtSnap struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, userCPU, mutexWait       float64
	schedLat                        *metrics.Float64Histogram
	procCPU                         time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSnap{
		allocBytes: ss[0].Value.Uint64(),
		allocObjs:  ss[1].Value.Uint64(),
		gcCycles:   ss[2].Value.Uint64(),
		gcCPU:      ss[3].Value.Float64(),
		userCPU:    ss[4].Value.Float64(),
		mutexWait:  ss[5].Value.Float64(),
		schedLat:   ss[6].Value.Float64Histogram(),
		procCPU:    processCPU(),
	}
}

// rtDelta is what the runtime did between two readings.
type rtDelta struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPUShare, mutexWaitMs         float64
	schedP50us, schedP99us          float64
	procCPU                         time.Duration
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		allocBytes:  float64(b.allocBytes - a.allocBytes),
		allocObjs:   float64(b.allocObjs - a.allocObjs),
		gcCycles:    float64(b.gcCycles - a.gcCycles),
		mutexWaitMs: (b.mutexWait - a.mutexWait) * 1e3,
		procCPU:     b.procCPU - a.procCPU,
	}
	if gc, user := b.gcCPU-a.gcCPU, b.userCPU-a.userCPU; gc+user > 0 {
		d.gcCPUShare = gc / (gc + user)
	}
	counts := make([]uint64, len(b.schedLat.Counts))
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
	}
	d.schedP50us = histQuantile(counts, b.schedLat.Buckets, 0.50) * 1e6
	d.schedP99us = histQuantile(counts, b.schedLat.Buckets, 0.99) * 1e6
	return d
}

// histQuantile returns the upper edge of the bucket holding quantile q
// (the lower edge for the unbounded last bucket); 0 for an empty
// histogram.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= need && c > 0 {
			if hi := buckets[i+1]; hi < 1e300 {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// processCPU returns the user plus system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// p90 returns the nearest-rank 90th percentile of xs (the maximum of up
// to nine values); 0 for none.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(9*len(s)+9)/10-1]
}

// tail returns the highest percentile of xs with at least ten values
// beyond it, that percentile, and whether one exists. With twenty values
// or fewer that percentile is not above the median, so the maximum is
// returned instead.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) <= 20 {
		return s[len(s)-1], 100, false
	}
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}
