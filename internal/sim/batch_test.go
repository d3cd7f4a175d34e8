package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// runBatched executes a batched simulation of inst, on flat or pointer
// machines, under the named stock scheduler and returns its event
// stream, Result, and error. opts may attach a fault plane.
func runBatched(t *testing.T, inst instance, schedName string, seed int64, flat bool,
	opts ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error) {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	ms, err := inst.build(flat)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]sim.Option[pulse.Pulse]{recordEvents(&events), sim.WithBatching()}, opts...)
	s, err := sim.New(topo, ms, sim.Stock(seed)[schedName], opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(inst.budget)
	return events, res, runErr
}

// replayExpanded replays a batched schedule on a fresh per-pulse
// simulation of inst via BatchReferenceRun and returns the expanded
// (pulse-by-pulse) event stream its observer records, plus the replay's
// Result. opts may attach the replay's own fault plane. When the batched
// run's last transition, on channel failed (-1 for none), aborted before
// it produced an event, the replay then delivers failed's pulses one at
// a time until one of them aborts too.
func replayExpanded(t *testing.T, inst instance, schedule []sim.Event, failed int,
	opts ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error) {
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
	// The driving scheduler is irrelevant: BatchReferenceRun replays the
	// recorded schedule itself.
	s, err := sim.New(topo, ms, sim.Canonical{}, append([]sim.Option[pulse.Pulse]{recordEvents(&events)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := sim.BatchReferenceRun(s, schedule)
	for runErr == nil && failed >= 0 && s.QueueLen(failed) > 0 {
		runErr = s.Deliver(failed)
		res = s.Result()
	}
	return events, res, runErr
}

// checkBatchedAgainstReference is the batched differential's core: the
// batched stream, expanded run by run, must equal the stream a per-pulse
// engine records while replaying the same schedule pulse by pulse, and
// the Results must be DeepEqual (batched step/sent/delivered totals count
// pulses, so they are engine-invariant).
func checkBatchedAgainstReference(t *testing.T, inst instance,
	batchedEv []sim.Event, batchedRes sim.Result, batchedErr error,
) {
	t.Helper()
	if batchedErr != nil {
		t.Fatalf("batched run failed: %v", batchedErr)
	}
	refEv, refRes, refErr := replayExpanded(t, inst, batchedEv, -1)
	if refErr != nil {
		t.Fatalf("pulse-by-pulse replay of the batched schedule failed: %v", refErr)
	}
	compareExpanded(t, batchedEv, batchedRes, refEv, refRes)
}

// compareExpanded fails t unless the batched stream, expanded run by
// run, equals the reference stream event for event, with DeepEqual
// Results.
func compareExpanded(t *testing.T, batchedEv []sim.Event, batchedRes sim.Result,
	refEv []sim.Event, refRes sim.Result) {
	t.Helper()
	expanded, err := sim.ExpandBatchEvents(batchedEv)
	if err != nil {
		t.Fatalf("batched stream violates the emission-uniformity contract: %v", err)
	}
	if len(expanded) != len(refEv) {
		t.Fatalf("trace lengths diverge: expanded batched %d events, reference %d", len(expanded), len(refEv))
	}
	for i := range expanded {
		if !reflect.DeepEqual(expanded[i], refEv[i]) {
			t.Fatalf("event %d diverges:\nexpanded  %+v\nreference %+v", i, expanded[i], refEv[i])
		}
	}
	if !reflect.DeepEqual(batchedRes, refRes) {
		t.Fatalf("results diverge:\nbatched   %+v\nreference %+v", batchedRes, refRes)
	}
}

// TestBatchedMatchesExpandedReference is the batched differential on the
// sequential engine: for every stock scheduler x seed x algorithm, in
// both machine representations, the batched run's event stream — each batch
// transition expanded into its consumed pulses — must be event-for-event
// identical to a plain pulse-by-pulse engine delivering the same runs one
// pulse at a time, with DeepEqual Results.
func TestBatchedMatchesExpandedReference(t *testing.T) {
	for _, inst := range instances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 5} {
				for _, flat := range []bool{false, true} {
					mode := "pointer"
					if flat {
						mode = "flat"
					}
					name := fmt.Sprintf("%s/%s/seed=%d/%s", inst.name, schedName, seed, mode)
					t.Run(name, func(t *testing.T) {
						ev, res, err := runBatched(t, inst, schedName, seed, flat)
						checkBatchedAgainstReference(t, inst, ev, res, err)
					})
				}
			}
		}
	}
}

// TestBatchedConservesPulseTotals pins the conservation law the batch
// fast path is built on: batching changes how many pulses one transition
// moves, never how many pulses move. The batched run legitimately takes
// a different admissible schedule than the plain run under the same
// scheduler, but content-oblivious executions are confluent, so the
// election outcome and every pulse total must agree exactly.
func TestBatchedConservesPulseTotals(t *testing.T) {
	for _, inst := range instances() {
		t.Run(inst.name, func(t *testing.T) {
			topo, err := inst.topo()
			if err != nil {
				t.Fatal(err)
			}
			ms, err := inst.machines()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sim.New(topo, ms, sim.Canonical{})
			if err != nil {
				t.Fatal(err)
			}
			plainRes, err := plain.Run(inst.budget)
			if err != nil {
				t.Fatal(err)
			}
			ms2, err := inst.machines()
			if err != nil {
				t.Fatal(err)
			}
			batched, err := sim.New(topo, ms2, sim.Canonical{}, sim.WithBatching())
			if err != nil {
				t.Fatal(err)
			}
			batchedRes, err := batched.Run(inst.budget)
			if err != nil {
				t.Fatal(err)
			}
			if batchedRes.Sent != plainRes.Sent ||
				batchedRes.SentCW != plainRes.SentCW ||
				batchedRes.SentCCW != plainRes.SentCCW ||
				batchedRes.Delivered != plainRes.Delivered ||
				batchedRes.Steps != plainRes.Steps ||
				batchedRes.Leader != plainRes.Leader ||
				!reflect.DeepEqual(batchedRes.Leaders, plainRes.Leaders) ||
				!reflect.DeepEqual(batchedRes.Statuses, plainRes.Statuses) ||
				batchedRes.Quiescent != plainRes.Quiescent {
				t.Fatalf("outcomes diverge:\nplain   %+v\nbatched %+v", plainRes, batchedRes)
			}
			transitions, _ := batched.RunsCoalesced()
			if transitions == 0 || transitions > batchedRes.Delivered {
				t.Fatalf("RunsCoalesced transitions = %d, want in [1, %d]", transitions, batchedRes.Delivered)
			}
		})
	}
}

// TestBatchedCoalescesAtScale pins the perf claim behind the fast path:
// on a consecutive-ID Algorithm 2 ring under the Heaviest scheduler,
// backlogs snowball into ring-sized waves, so the batched engine must
// move the full Θ(n·ID_max) pulse volume in a near-linear number of
// transitions — while conserving the pulse total exactly (totals are
// schedule-invariant). Coalescing is genuinely schedule-dependent: the
// canonical scheduler's oldest-first pick is breadth-first, keeps every
// queue shallow during the counterclockwise relay phase, and caps
// batching near 3x on this same workload, which the second half pins as
// a floor so the contrast stays measured rather than assumed.
func TestBatchedCoalescesAtScale(t *testing.T) {
	const n = 512
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
	run := func(sched sim.Scheduler) (sim.Result, uint64, uint64) {
		t.Helper()
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(topo, ms, sched, sim.WithBatching())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != pred {
			t.Fatalf("sent %d pulses, want %d (batching must conserve the total)", res.Sent, pred)
		}
		transitions, multi := s.RunsCoalesced()
		return res, transitions, multi
	}

	res, transitions, multi := run(sim.Heaviest{})
	if multi == 0 {
		t.Fatal("no multi-pulse transitions on a deep-queue workload")
	}
	// ~525k pulses must batch into a small multiple of n transitions.
	if transitions > res.Delivered/50 {
		t.Fatalf("%d transitions for %d pulses: batching coalesced less than 50x under Heaviest",
			transitions, res.Delivered)
	}

	canonRes, canonTransitions, _ := run(sim.Canonical{})
	if canonTransitions > canonRes.Delivered {
		t.Fatalf("%d canonical transitions for %d pulses", canonTransitions, canonRes.Delivered)
	}
	if canonTransitions < 10*transitions {
		t.Fatalf("canonical coalesced to %d transitions vs Heaviest's %d: the schedule-dependence this test documents has vanished — revisit the batching story",
			canonTransitions, transitions)
	}
}

// plainOnly is a PulseMachine that deliberately does not implement
// node.BatchMachine. It relays each of the first budget pulses it
// receives out of the opposite port, so a ring of them carries traffic.
type plainOnly struct{ budget int }

func (m *plainOnly) Init(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }

func (m *plainOnly) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if m.budget > 0 {
		m.budget--
		e.Send(p.Opposite(), pulse.Pulse{})
	}
}

func (m *plainOnly) Ready(pulse.Port) bool { return true }
func (m *plainOnly) Status() node.Status   { return node.Status{} }

// TestBatchUnsupported pins that WithBatching takes any pulse machines
// and a fault plane: machines that are not node.BatchMachine run one
// pulse per transition, with the same events and Result as the per-pulse
// run, and a batched run with a plane constructs, runs and fires.
func TestBatchUnsupported(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error) {
		ms := make([]node.PulseMachine, 4)
		for k := range ms {
			ms[k] = &plainOnly{budget: 3 + k}
		}
		var events []sim.Event
		s, err := sim.New(topo, ms, sim.Heaviest{}, append(opts, recordEvents(&events))...)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := s.Run(1 << 12)
		return events, res, runErr
	}
	plainEv, plainRes, plainErr := run()
	if plainRes.Delivered < 10 {
		t.Fatalf("plainOnly ring delivered %d pulses; the test exercises nothing", plainRes.Delivered)
	}
	batchEv, batchRes, batchErr := run(sim.WithBatching())
	compareRuns(t, "non-BatchMachine bank under WithBatching", plainEv, plainRes, plainErr, batchEv, batchRes, batchErr)

	ms, err := core.Alg1Machines(topo, ring.ConsecutiveIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	plane, err := fault.New(1, fault.Config{Nodes: 4, Classes: fault.NewSet(fault.Corrupt), Budget: 2, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithFaultPlane[pulse.Pulse](plane), sim.WithBatching())
	if err != nil {
		t.Fatalf("fault plane + batching: %v", err)
	}
	res, _ := s.Run(1 << 12)
	if res.Delivered == 0 || plane.Fired() == 0 {
		t.Fatalf("batched faulted run delivered %d pulses and fired %d injections; want both > 0\n%s",
			res.Delivered, plane.Fired(), fault.FormatLog(plane.Log()))
	}
}

// TestBatchedDeliverRejected pins the driving contract Deliver keeps on
// a batched simulation: it is the per-pulse entry point, so it delivers
// exactly one pulse even when a longer run is queued.
func TestBatchedDeliverRejected(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ring.ConsecutiveIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithBatching(), recordEvents(&events))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := s.InitNode(k); err != nil {
			t.Fatal(err)
		}
	}
	// Let one channel build up a run of two or more pulses.
	c := -1
	for c < 0 {
		for _, d := range s.Deliverable() {
			if s.QueueLen(d) > 1 {
				c = d
			}
		}
		if c < 0 {
			if err := s.Deliver(s.Deliverable()[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	queued, delivered, step := s.QueueLen(c), s.Result().Delivered, s.Step()
	if err := s.Deliver(c); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueLen(c); got != queued-1 {
		t.Fatalf("Deliver on a batched sim left %d of %d queued pulses, want %d", got, queued, queued-1)
	}
	if got := s.Result().Delivered; got != delivered+1 || s.Step() != step+1 {
		t.Fatalf("Deliver moved Delivered %d -> %d and Step %d -> %d, want one pulse", delivered, got, step, s.Step())
	}
	if last := events[len(events)-1]; last.Kind != sim.EvDeliver || last.Count != 0 {
		t.Fatalf("Deliver recorded %+v, want a single-pulse delivery", last)
	}
}

// faultClasses are the six fault classes, one at a time.
var faultClasses = []fault.Class{fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt}

// pickCounter wraps a scheduler, counting its picks and remembering the
// latest one.
type pickCounter struct {
	sim.Scheduler
	picks, last int
}

func (p *pickCounter) Next(v sim.View) int {
	p.last = p.Scheduler.Next(v)
	p.picks++
	return p.last
}

// hintedPickCounter forwards the wrapped scheduler's aux-heap hints.
type hintedPickCounter struct{ *pickCounter }

func (h hintedPickCounter) HeapHints() []sim.HeapHint {
	return h.Scheduler.(sim.HeapHinted).HeapHints()
}

// checkFaultedBatch runs inst batched under sched with a plane built from
// (faultSeed, cfg), replays its schedule on a per-pulse simulation whose
// own plane has the same schedule, and fails t unless the runs end alike
// and the expanded events, the Results and the injection logs agree one
// for one.
func checkFaultedBatch(t *testing.T, inst instance, sched sim.Scheduler, faultSeed int64, cfg fault.Config) {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := inst.machines()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := fault.New(faultSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := &pickCounter{Scheduler: sched}
	var wrapped sim.Scheduler = pc
	if _, ok := sched.(sim.HeapHinted); ok {
		wrapped = hintedPickCounter{pc}
	}
	var ev []sim.Event
	s, err := sim.New(topo, ms, wrapped, recordEvents(&ev), sim.WithBatching(), sim.WithFaultPlane[pulse.Pulse](bp))
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(inst.budget)
	// A transition that aborts produces no event; the replay must then
	// run it too, pulse by pulse.
	failed, deliveries := -1, 0
	for _, e := range ev {
		if e.Kind == sim.EvDeliver {
			deliveries++
		}
	}
	if pc.picks > deliveries {
		failed = pc.last
	}
	rp, err := fault.New(faultSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEv, refRes, refErr := replayExpanded(t, inst, ev, failed, sim.WithFaultPlane[pulse.Pulse](rp))
	if refErr != nil && (runErr == nil || refErr.Error() != runErr.Error()) {
		t.Fatalf("replay failed with %v; the batched run ended %v", refErr, runErr)
	}
	if failed >= 0 && refErr == nil {
		t.Fatalf("the batched run's last transition failed with %v; its per-pulse replay did not", runErr)
	}
	if failed >= 0 {
		// The replay also ran the aborted transition's leading pulses,
		// which the batched observer never saw.
		var n uint64
		for _, e := range ev {
			n += max(e.Count, 1)
		}
		if uint64(len(refEv)) > n {
			for _, e := range refEv[n:] {
				if e.Kind != sim.EvDeliver || 2*e.Node+int(e.Port) != failed {
					t.Fatalf("replay event %+v is not a pulse of the aborted transition on channel %d", e, failed)
				}
			}
			refEv = refEv[:n]
		}
	}
	compareExpanded(t, ev, res, refEv, refRes)
	if !reflect.DeepEqual(bp.Log(), rp.Log()) {
		t.Fatalf("injection logs diverge:\nbatched\n%sreference\n%s", fault.FormatLog(bp.Log()), fault.FormatLog(rp.Log()))
	}
}

// TestBatchedFaultsMatchExpanded is the batched differential with a fault
// plane attached: for every instance, stock scheduler, fault class,
// budget and trigger, the batched faulted run, expanded run by run, must
// equal a per-pulse faulted replay of its schedule event for event, with
// the same Result and the same injection log (every injection firing at
// the same step). Restart wake-ups and spurious pulses are not replayed;
// the replay's own plane produces them. Subtests without a trigger
// suffix use TriggerLocal.
func TestBatchedFaultsMatchExpanded(t *testing.T) {
	for _, inst := range instances() {
		topo, err := inst.topo()
		if err != nil {
			t.Fatal(err)
		}
		for schedName := range sim.Stock(1) {
			for _, class := range faultClasses {
				for budget := 1; budget <= 2; budget++ {
					for _, trigger := range []fault.TriggerMode{fault.TriggerLocal, fault.TriggerWindow} {
						name := fmt.Sprintf("%s/%s/%s/budget=%d", inst.name, schedName, class, budget)
						if trigger == fault.TriggerWindow {
							name += "/window"
						}
						t.Run(name, func(t *testing.T) {
							cfg := fault.Config{Nodes: topo.N(), Classes: fault.NewSet(class), Budget: budget, Trigger: trigger}
							checkFaultedBatch(t, inst, sim.Stock(3)[schedName], int64(budget)*7+int64(class), cfg)
						})
					}
				}
			}
		}
	}
}

// TestZeroBudgetPlaneBatchedIdentity: with WithBatching, a zero-budget
// plane must be indistinguishable from no plane — the same events and
// Result, so the plane caps no transition it cannot fire in.
func TestZeroBudgetPlaneBatchedIdentity(t *testing.T) {
	for _, inst := range instances() {
		topo, err := inst.topo()
		if err != nil {
			t.Fatal(err)
		}
		for schedName := range sim.Stock(1) {
			t.Run(inst.name+"/"+schedName, func(t *testing.T) {
				plane, err := fault.New(1, fault.Config{Nodes: topo.N(), Classes: fault.AllClasses})
				if err != nil {
					t.Fatal(err)
				}
				bareEv, bareRes, bareErr := runBatched(t, inst, schedName, 1, false)
				ev, res, runErr := runBatched(t, inst, schedName, 1, false, sim.WithFaultPlane[pulse.Pulse](plane))
				compareRuns(t, "zero-budget plane", bareEv, bareRes, bareErr, ev, res, runErr)
			})
		}
	}
}

// TestBatchedRunAllocs asserts the batch fast path stays allocation-free
// per run: a full n=64 Algorithm 2 election (8256 pulses) with
// batching on must fit construction plus the entire run in
// the same 1000-allocation envelope the plain engine meets — which only
// holds if batch transitions, counted-run queue operations, and the
// reusable run emitter allocate nothing as the run progresses.
func TestBatchedRunAllocs(t *testing.T) {
	const n = 64
	run := func() {
		topo, err := ring.Oriented(n)
		if err != nil {
			t.Fatal(err)
		}
		ids := ring.ConsecutiveIDs(n)
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithBatching())
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
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 1000 {
		t.Fatalf("construction + batched run allocated %.0f objects, want <= 1000 (batch path must not allocate)", allocs)
	}
}
