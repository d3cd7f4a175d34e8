package fault_test

import (
	"reflect"
	"strings"
	"testing"

	"coleader/internal/fault"
)

func TestParseSet(t *testing.T) {
	cases := []struct {
		spec string
		want fault.Set
		err  bool
	}{
		{"all", fault.AllClasses, false},
		{"loss", fault.NewSet(fault.Loss), false},
		{"loss,corrupt", fault.NewSet(fault.Loss, fault.Corrupt), false},
		{"crash, restart", fault.NewSet(fault.Crash, fault.Restart), false},
		{"dup,spurious", fault.NewSet(fault.Dup, fault.Spurious), false},
		{"bogus", 0, true},
		{"loss,bogus", 0, true},
	}
	for _, c := range cases {
		got, err := fault.ParseSet(c.spec)
		if (err != nil) != c.err {
			t.Errorf("ParseSet(%q) err = %v, want err=%t", c.spec, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseSet(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
	// Round trip through String.
	s := fault.NewSet(fault.Dup, fault.Crash)
	back, err := fault.ParseSet(s.String())
	if err != nil || back != s {
		t.Errorf("ParseSet(%q) = %v, %v; want %v", s.String(), back, err, s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := fault.New(1, fault.Config{Nodes: 0}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := fault.New(1, fault.Config{Nodes: 3, Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := fault.New(1, fault.Config{Nodes: 3, Budget: 2}); err == nil {
		t.Error("budget without classes accepted")
	}
	if _, err := fault.New(1, fault.Config{Nodes: 3}); err != nil {
		t.Errorf("zero-budget plane rejected: %v", err)
	}
}

// TestScheduleDeterminism: identical (seed, cfg) must produce the identical
// schedule; different seeds must (for this configuration) differ.
func TestScheduleDeterminism(t *testing.T) {
	cfg := fault.Config{Nodes: 5, Classes: fault.AllClasses, Budget: 12, Horizon: 6}
	a, err := fault.New(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fault.New(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Log(), b.Log()) {
		t.Errorf("same seed, different schedules:\n%v\nvs\n%v", a.Log(), b.Log())
	}
	c, err := fault.New(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Log(), c.Log()) {
		t.Errorf("seeds 42 and 43 drew identical schedules")
	}
	if len(a.Log()) != cfg.Budget {
		t.Errorf("schedule holds %d injections, want budget %d", len(a.Log()), cfg.Budget)
	}
}

// TestScheduleShape: every injection respects its class's target kind, the
// horizon may only be exceeded by collision bumps, and triggers are unique
// per counter domain and entity.
func TestScheduleShape(t *testing.T) {
	cfg := fault.Config{Nodes: 3, Classes: fault.AllClasses, Budget: 40, Horizon: 4}
	p, err := fault.New(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		domain  int
		entity  int
		trigger uint64
	}
	seen := map[key]bool{}
	for _, in := range p.Log() {
		if !cfg.Classes.Has(in.Class) {
			t.Errorf("scheduled disabled class %v", in.Class)
		}
		var k key
		switch in.Class {
		case fault.Loss, fault.Dup:
			k = key{0, in.Chan, in.Trigger}
		case fault.Spurious:
			k = key{1, in.Chan, in.Trigger}
		default:
			k = key{2, in.Node, in.Trigger}
		}
		switch in.Class {
		case fault.Loss, fault.Dup, fault.Spurious:
			if in.Chan < 0 || in.Chan >= 2*cfg.Nodes || in.Node != in.Chan/2 {
				t.Errorf("channel fault with bad target: %+v", in)
			}
		default:
			if in.Chan != -1 || in.Node < 0 || in.Node >= cfg.Nodes {
				t.Errorf("node fault with bad target: %+v", in)
			}
		}
		if in.Trigger < 1 {
			t.Errorf("trigger below 1: %+v", in)
		}
		if seen[k] {
			t.Errorf("duplicate trigger in one counter domain: %+v", in)
		}
		seen[k] = true
		if in.Fired || in.Skipped || in.Step != 0 {
			t.Errorf("fresh schedule entry already annotated: %+v", in)
		}
	}
}

// TestHooksFireAtTriggers drives the counters by hand and checks each
// injection fires exactly at its trigger, and exactly once.
func TestHooksFireAtTriggers(t *testing.T) {
	cfg := fault.Config{Nodes: 4, Classes: fault.AllClasses, Budget: 16, Horizon: 5}
	p, err := fault.New(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Log()
	fired := make([]bool, len(sched))
	const rounds = 10 // past any bumped trigger
	for ev := uint64(1); ev <= rounds; ev++ {
		for c := 0; c < 2*cfg.Nodes; c++ {
			if cl := p.OnSend(ev, c, 1); cl != 0 {
				markFired(t, sched, fired, cl, c, -1, ev)
			}
			if cl := p.OnDeliver(ev, c, 1); cl != 0 {
				markFired(t, sched, fired, cl, c, -1, ev)
			}
		}
		for k := 0; k < cfg.Nodes; k++ {
			if cl := p.OnHandler(ev, k, 1); cl != 0 {
				markFired(t, sched, fired, cl, -1, k, ev)
			}
		}
	}
	for i, f := range fired {
		if !f {
			t.Errorf("injection %d never fired within %d events: %+v", i, rounds, sched[i])
		}
	}
	if got := p.Fired(); got != len(sched) {
		t.Errorf("Fired() = %d, want %d", got, len(sched))
	}
	for _, in := range p.Log() {
		if !in.Fired || in.Step != in.Trigger {
			t.Errorf("log entry not annotated with its firing: %+v", in)
		}
	}
}

func markFired(t *testing.T, sched []fault.Injection, fired []bool, cl fault.Class, c, k int, trigger uint64) {
	t.Helper()
	for i, in := range sched {
		if fired[i] || in.Class != cl || in.Trigger != trigger {
			continue
		}
		if c >= 0 && in.Chan != c {
			continue
		}
		if k >= 0 && (in.Chan != -1 || in.Node != k) {
			continue
		}
		fired[i] = true
		return
	}
	t.Errorf("hook fired %v on chan=%d node=%d at %d, but no matching schedule entry", cl, c, k, trigger)
}

// TestZeroBudgetInert: a zero-budget plane never fires anything.
func TestZeroBudgetInert(t *testing.T) {
	p, err := fault.New(5, fault.Config{Nodes: 3, Classes: fault.AllClasses})
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint64(1); ev <= 100; ev++ {
		for c := 0; c < 6; c++ {
			if p.OnSend(ev, c, 1) != 0 || p.OnDeliver(ev, c, 1) != 0 {
				t.Fatalf("zero-budget plane fired a channel fault")
			}
		}
		for k := 0; k < 3; k++ {
			if p.OnHandler(ev, k, 1) != 0 {
				t.Fatalf("zero-budget plane fired a node fault")
			}
		}
	}
	if len(p.Log()) != 0 || p.Fired() != 0 {
		t.Errorf("zero-budget plane has log entries")
	}
}

func TestPerturb(t *testing.T) {
	mk := func(mode fault.PerturbMode) *fault.Plane {
		p, err := fault.New(9, fault.Config{
			Nodes: 2, Classes: fault.NewSet(fault.Corrupt), Budget: 1, Mode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	snap := []byte{1, 2, 3, 4, 5}
	p := mk(fault.PerturbOutput)
	out := p.Perturb(0, snap)
	if &out[0] == &snap[0] {
		t.Fatal("Perturb mutated its input in place")
	}
	if !reflect.DeepEqual(out[:4], snap[:4]) {
		t.Errorf("PerturbOutput touched non-tail bytes: %v", out)
	}
	if out[4] == snap[4] {
		t.Errorf("PerturbOutput left the tail byte unchanged")
	}
	// Deterministic in (seed, node, handler count).
	if again := mk(fault.PerturbOutput).Perturb(0, snap); !reflect.DeepEqual(out, again) {
		t.Errorf("Perturb not deterministic: %v vs %v", out, again)
	}

	pb := mk(fault.PerturbBytes)
	outB := pb.Perturb(1, snap)
	if reflect.DeepEqual(outB, snap) {
		t.Errorf("PerturbBytes changed nothing")
	}
	if len(outB) != len(snap) {
		t.Errorf("Perturb changed the snapshot length")
	}
	if got := p.Perturb(0, nil); len(got) != 0 {
		t.Errorf("Perturb of empty snapshot = %v", got)
	}
}

func TestSkipLast(t *testing.T) {
	p, err := fault.New(3, fault.Config{
		Nodes: 1, Classes: fault.NewSet(fault.Restart), Budget: 1, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl := p.OnHandler(1, 0, 1); cl != fault.Restart {
		t.Fatalf("OnHandler = %v, want restart", cl)
	}
	p.SkipLast(0)
	log := p.Log()
	if len(log) != 1 || !log[0].Fired || !log[0].Skipped {
		t.Errorf("log = %+v, want fired+skipped", log)
	}
	if !strings.Contains(log[0].String(), "skipped") {
		t.Errorf("String() does not surface the skip: %s", log[0])
	}
}

func TestFormatLog(t *testing.T) {
	p, err := fault.New(1, fault.Config{Nodes: 2, Classes: fault.AllClasses, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := fault.FormatLog(p.Log())
	if strings.Count(out, "\n") != 3 || !strings.Contains(out, "[1]") {
		t.Errorf("FormatLog output unexpected:\n%s", out)
	}
}

// TestScriptedPlane: an explicit schedule fires exactly at the scripted
// ordinals, with no RNG involved.
func TestScriptedPlane(t *testing.T) {
	p, err := fault.Scripted(fault.Config{Nodes: 3, Classes: fault.NewSet(fault.Crash, fault.Loss)},
		[]fault.Injection{
			{Class: fault.Crash, Node: 1, Trigger: 2},
			{Class: fault.Loss, Chan: 4, Trigger: 3},
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.OnHandler(1, 1, 1) != 0 {
		t.Error("crash fired before its scripted trigger")
	}
	if got := p.OnHandler(2, 1, 1); got != fault.Crash {
		t.Errorf("handler 2 on node 1: %v, want crash", got)
	}
	for ev := uint64(1); ev <= 2; ev++ {
		if p.OnSend(ev, 4, 1) != 0 {
			t.Errorf("loss fired at send %d, scripted for 3", ev)
		}
	}
	if got := p.OnSend(3, 4, 1); got != fault.Loss {
		t.Errorf("send 3 on chan 4: %v, want loss", got)
	}
	if p.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", p.Fired())
	}
}

// TestScriptedValidation covers every rejection path of Scripted.
func TestScriptedValidation(t *testing.T) {
	cfg := fault.Config{Nodes: 2, Classes: fault.AllClasses}
	cases := []struct {
		name string
		ins  []fault.Injection
	}{
		{"unknown class", []fault.Injection{{Class: 99, Node: 0, Trigger: 1}}},
		{"channel out of range", []fault.Injection{{Class: fault.Loss, Chan: 4, Trigger: 1}}},
		{"node out of range", []fault.Injection{{Class: fault.Crash, Node: 2, Trigger: 1}}},
		{"zero trigger", []fault.Injection{{Class: fault.Crash, Node: 0}}},
		{"duplicate trigger", []fault.Injection{
			{Class: fault.Crash, Node: 0, Trigger: 1},
			{Class: fault.Restart, Node: 0, Trigger: 1},
		}},
	}
	for _, c := range cases {
		if _, err := fault.Scripted(cfg, c.ins); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := fault.Scripted(fault.Config{Nodes: 0}, nil); err == nil {
		t.Error("Nodes=0 accepted")
	}
}

// TestWindowTriggerArming: under TriggerWindow an injection arms on the
// ring-wide delivery count and fires at the target's NEXT local event —
// never before the window opens, even if the target is busy.
func TestWindowTriggerArming(t *testing.T) {
	p, err := fault.Scripted(
		fault.Config{Nodes: 3, Classes: fault.NewSet(fault.Crash), Trigger: fault.TriggerWindow},
		[]fault.Injection{{Class: fault.Crash, Node: 0, Trigger: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// The target is busy before the window opens: no firing.
	for i := 0; i < 5; i++ {
		if p.OnHandler(0, 0, 1) != 0 {
			t.Fatal("crash fired before the delivery window opened")
		}
	}
	// Ring-wide deliveries on OTHER channels open the window.
	p.OnDeliver(0, 3, 1)
	p.OnDeliver(0, 4, 1)
	if p.OnHandler(0, 0, 1) != 0 {
		t.Fatal("crash fired after 2 deliveries; window is 3")
	}
	p.OnDeliver(0, 5, 1)
	if got := p.OnHandler(0, 0, 1); got != fault.Crash {
		t.Fatalf("first handler after the window opened: %v, want crash", got)
	}
	log := p.Log()
	if !log[0].Fired || !log[0].Windowed {
		t.Errorf("log entry %+v should be fired and windowed", log[0])
	}
	if !strings.Contains(log[0].String(), "delivery-window#3") {
		t.Errorf("log rendering %q lacks the delivery-window unit", log[0])
	}
}

// TestWindowTriggerIdleTarget: the window mode expresses what local
// ordinals cannot — a fault on an entity that is idle until the ring as a
// whole has made progress. The target's FIRST local event fires the
// injection if the window is already open.
func TestWindowTriggerIdleTarget(t *testing.T) {
	p, err := fault.Scripted(
		fault.Config{Nodes: 2, Classes: fault.NewSet(fault.Loss), Trigger: fault.TriggerWindow},
		[]fault.Injection{{Class: fault.Loss, Chan: 1, Trigger: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 1 has had NO sends; the ring progresses elsewhere.
	p.OnDeliver(0, 2, 1)
	p.OnDeliver(0, 2, 1)
	// Now the very first send on the idle channel is hit.
	if got := p.OnSend(0, 1, 1); got != fault.Loss {
		t.Fatalf("first send after window opened: %v, want loss", got)
	}
}

// TestWindowTriggerLocalUnaffected: under the default TriggerLocal mode,
// deliveries elsewhere never arm a trigger — the modes are really
// different interpretations of the same ordinal.
func TestWindowTriggerLocalUnaffected(t *testing.T) {
	p, err := fault.Scripted(
		fault.Config{Nodes: 2, Classes: fault.NewSet(fault.Loss)},
		[]fault.Injection{{Class: fault.Loss, Chan: 1, Trigger: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.OnDeliver(0, 2, 1)
	}
	if p.OnSend(1, 1, 1) != 0 {
		t.Error("local-mode loss fired at send 1; its trigger is the 2nd send")
	}
	if got := p.OnSend(2, 1, 1); got != fault.Loss {
		t.Errorf("send 2: %v, want loss", got)
	}
}

// TestQuietRuns: Quiet holds exactly when no injection is pending on the
// delivery channel, its receiving node or the two channels that node
// sends on, under either trigger, and while it holds a counted hook call advances a counter by a whole run without
// firing; the injection then still fires at its own trigger.
func TestQuietRuns(t *testing.T) {
	schedule := []fault.Injection{
		{Class: fault.Spurious, Chan: 0, Trigger: 4},
		{Class: fault.Crash, Node: 1, Trigger: 2},
		{Class: fault.Loss, Chan: 5, Trigger: 3},
	}
	p, err := fault.Scripted(fault.Config{Nodes: 3, Classes: fault.AllClasses}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c, out0, out1 int
		quiet         bool
	}{
		{0, 2, 3, false}, // spurious pending on the delivery channel
		{2, 4, 0, false}, // crash pending on node 1
		{4, 5, 1, false}, // loss pending on an outgoing channel
		{4, 1, 2, true},
	} {
		if got := p.Quiet(tc.c, tc.out0, tc.out1); got != tc.quiet {
			t.Errorf("Quiet(%d, %d, %d) = %t, want %t", tc.c, tc.out0, tc.out1, got, tc.quiet)
		}
	}
	if p.OnDeliver(1, 4, 5) != 0 || p.OnHandler(5, 2, 5) != 0 || p.OnSend(5, 1, 5) != 0 {
		t.Error("a counted run on quiet entities fired")
	}
	for ev := uint64(1); ev <= 3; ev++ {
		if p.OnDeliver(ev, 0, 1) != 0 {
			t.Errorf("spurious fired at delivery %d, scripted for 4", ev)
		}
	}
	if got := p.OnDeliver(4, 0, 1); got != fault.Spurious {
		t.Errorf("delivery 4 on chan 0: %v, want spurious", got)
	}
	if !p.Quiet(0, 2, 3) {
		t.Error("Quiet false on channel 0 after its only injection fired")
	}

	w, err := fault.Scripted(fault.Config{Nodes: 3, Classes: fault.AllClasses, Trigger: fault.TriggerWindow}, schedule[1:2])
	if err != nil {
		t.Fatal(err)
	}
	// A window injection fires only at its own target's event, so an
	// injection pending elsewhere leaves the run quiet, and a run that
	// touches the target is not.
	if !w.Quiet(4, 1, 2) {
		t.Error("window-mode Quiet false with the only injection pending on an untouched node")
	}
	if w.Quiet(2, 4, 0) {
		t.Error("window-mode Quiet true with a crash pending on the receiving node")
	}
	w.OnDeliver(1, 4, 2)
	if got := w.OnHandler(2, 1, 1); got != fault.Crash {
		t.Fatalf("node 1's first handler after the window opened: %v, want crash", got)
	}
	if !w.Quiet(4, 1, 2) {
		t.Error("window-mode Quiet false after every injection fired")
	}
}
