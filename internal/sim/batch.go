package sim

import (
	"fmt"

	"coleader/internal/pulse"
)

// The pulse-run batch fast path.
//
// A content-oblivious channel's entire state is its pulse count, so the
// k pulses queued on a channel are one integer — and a machine whose
// transitions are counter arithmetic (node.BatchMachine) can consume a
// run of them in O(1) instead of k scheduler steps. WithBatching turns
// this on: channel queues store counted runs (entry.cnt), the delivery
// loop hands whole runs to OnPulses, and emissions travel as counted
// runs too. This is what breaks the Θ(n·ID_max) delivery wall: the
// pulse totals (Sent, Delivered, SentCW/CCW, Steps) are conserved
// exactly — batching changes how many pulses one transition moves,
// never how many pulses move.
//
// Equivalence: a batched execution realizes the pulse-by-pulse schedule
// obtained by expanding each batch transition into its consumed
// single-pulse deliveries back to back. The sequence numbers the
// batched engine assigns to an emitted run are exactly the numbers the
// expanded execution assigns (the BatchMachine contract makes
// multi-pulse transitions emission-uniform on a single port, so the
// expanded interleaving is per-channel contiguous). BatchReferenceRun
// replays that expanded schedule on a plain sequential simulation, and
// the batched differential tests assert event-for-event equality.
//
// The fast path stays opt-in so the plain sequential engine remains the
// reference implementation everything else is verified against.

// WithBatching enables the pulse-run batch fast path. It is pulse-only
// by construction (the option applies to Sim[pulse.Pulse]); every
// machine must implement node.BatchMachine — a flat bank,
// node.FlatBatchMachine — and the fault plane is rejected (batching is
// model-exact). Construction fails with ErrBatchUnsupported otherwise.
func WithBatching() Option[pulse.Pulse] {
	return func(s *Sim[pulse.Pulse]) { s.batch = true }
}

// setupBatch validates and wires the batch fast path after options ran.
func (s *Sim[M]) setupBatch() error {
	if !s.batch {
		return nil
	}
	if s.plane != nil {
		return fmt.Errorf("%w: the batch fast path is model-exact; fault injection needs the pulse-by-pulse engine", ErrBatchUnsupported)
	}
	bms, fbm, err := resolveBatch[M](s.machines, s.flat)
	if err != nil {
		return err
	}
	s.bms, s.fbm = bms, fbm
	return nil
}

// pendingRun is one buffered counted emission of a batch transition.
type pendingRun struct {
	port pulse.Port
	n    uint64
}

// runEmitter is the node.BatchEmitter handed to OnPulses: it buffers
// counted runs so they take effect atomically when the transition
// returns, mirroring the plain emitter. It is reused across transitions
// (reset by the delivery loop), keeping the fast path allocation-free.
type runEmitter struct {
	buf []pendingRun
}

// Send implements node.Emitter: a single pulse is a run of one.
func (e *runEmitter) Send(p pulse.Port, _ pulse.Pulse) {
	if !p.Valid() {
		panic(fmt.Sprintf("sim: send on invalid port %d", p))
	}
	e.buf = append(e.buf, pendingRun{port: p, n: 1})
}

// SendRun implements node.BatchEmitter.
func (e *runEmitter) SendRun(p pulse.Port, n uint64) {
	if !p.Valid() {
		panic(fmt.Sprintf("sim: send on invalid port %d", p))
	}
	if n == 0 {
		return
	}
	e.buf = append(e.buf, pendingRun{port: p, n: n})
}

// checkRunUniformity enforces the BatchMachine emission contract the
// sequence numbering relies on: a transition that consumed more than
// one pulse must emit on at most one port, with a per-pulse-uniform
// total. Violations are machine bugs; the engine aborts rather than
// silently mis-number the wire.
func checkRunUniformity(buf []pendingRun, consumed uint64) error {
	if consumed <= 1 || len(buf) == 0 {
		return nil
	}
	if len(buf) > 1 {
		return fmt.Errorf("sim: batch transition of %d pulses emitted on %d ports; the BatchMachine contract allows one", consumed, len(buf))
	}
	if buf[0].n%consumed != 0 {
		return fmt.Errorf("sim: batch transition of %d pulses emitted a non-uniform run of %d", consumed, buf[0].n)
	}
	return nil
}

// enqueueRun places a counted run on channel c traveling dir, assigning
// it the next n global sequence numbers and maintaining the counters
// and the deliverable set — enqueue, vectorized.
func (s *Sim[M]) enqueueRun(c int, n uint64, dir pulse.Direction) {
	var zero M
	wasEmpty := s.queues[c].n == 0
	s.queues[c].pushRun(entry[M]{seq: s.seq + 1, cnt: n, msg: zero}, 0)
	s.seq += n
	s.sent += n
	if dir == pulse.CW {
		s.sentCW += n
	} else {
		s.sentCCW += n
	}
	if wasEmpty {
		s.refreshChan(c)
	} else if len(s.aux) > 0 && s.deliv.get(c) {
		// Head unchanged; re-register for count-keyed heaps only (the
		// head-keyed ones dedup this push).
		s.auxPush(c, s.queues[c].front().seq)
	}
}

// flushRuns is flushSends for a batch transition: clockwise runs first
// (the same Definition 21 tie-break — run emissions of one transition
// are per-channel contiguous, so ordering whole runs orders every
// expanded pulse).
func (s *Sim[M]) flushRuns(from int, consumed uint64, ev *Event) error {
	buf := s.runEm.buf
	if err := checkRunUniformity(buf, consumed); err != nil {
		return err
	}
	for pass := 0; pass < 2; pass++ {
		want := pulse.CW
		if pass == 1 {
			want = pulse.CCW
		}
		for _, pr := range buf {
			out := chanID(from, pr.port)
			if s.outDir[out] != want {
				continue
			}
			c := int(s.peerCh[out])
			if s.termAt[ChanNode(c)] != 0 {
				return fmt.Errorf("%w: node %d sent %s toward node %d",
					ErrPostTerminationSend, from, want, ChanNode(c))
			}
			s.enqueueRun(c, pr.n, want)
			if ev != nil {
				ev.Sends = append(ev.Sends, SendRec{From: from, Port: pr.port, Dir: want, To: chanEndpoint(c), Count: pr.n})
			}
		}
	}
	s.runEm.buf = s.runEm.buf[:0]
	return nil
}

// deliverRun is the batch fast path's Deliver: hand the channel's whole
// queued pulse count to the receiver's OnPulses, pop what it consumed,
// and account for the consumed pulses as the expanded pulse-by-pulse
// execution would (step, delivered, and sequence numbers all advance by
// pulse counts, so Result totals are engine-invariant).
func (s *Sim[M]) deliverRun(c int) error {
	if s.failed != nil {
		return s.failed
	}
	if c < 0 || c >= len(s.queues) || s.queues[c].n == 0 {
		return fmt.Errorf("sim: deliver on empty or invalid channel %d", c)
	}
	k, p := ChanNode(c), ChanPort(c)
	switch {
	case !s.inited[k]:
		return fmt.Errorf("sim: deliver to uninitialized node %d", k)
	case s.termAt[k] != 0:
		return s.fail(fmt.Errorf("%w: delivery attempted to node %d", ErrPostTerminationSend, k))
	case !s.mReady(k, p):
		return fmt.Errorf("sim: deliver on non-ready port %s of node %d", p, k)
	}
	avail := s.queues[c].tot
	s.runEm.buf = s.runEm.buf[:0]
	var consumed uint64
	if s.fbm != nil {
		consumed = s.fbm.OnPulses(k, p, avail, &s.runEm)
	} else {
		consumed = s.bms[k].OnPulses(p, avail, &s.runEm)
	}
	if consumed == 0 || consumed > avail {
		return s.fail(fmt.Errorf("sim: batch transition at node %d consumed %d of %d queued pulses", k, consumed, avail))
	}
	s.queues[c].popPulses(consumed)
	s.delivered += consumed
	s.step += consumed
	s.runs++
	if consumed > 1 {
		s.coalesced++
	}
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvDeliver, Step: s.step - consumed + 1, Node: k, Port: p,
			Dir: s.chanDir[c], Count: consumed}
	}
	if err := s.flushRuns(k, consumed, ev); err != nil {
		return s.fail(err)
	}
	if err := s.afterHandler(k, ev); err != nil {
		return s.fail(err)
	}
	return nil
}
