package sim

import (
	"fmt"

	"coleader/internal/pulse"
)

// Pulse-run batching.
//
// A content-oblivious channel's entire state is its pulse count, so the
// k pulses queued on a channel are one integer — and a machine whose
// transitions are counter arithmetic (node.BatchMachine) can consume a
// run of them in O(1) instead of k scheduler steps. The engine has one
// delivery path, and a single-pulse delivery is a run of one: queues
// hold counted runs (entry.cnt), deliver hands a run to OnPulses, and
// emissions travel as counted runs. WithBatching makes Run offer each
// transition the channel's whole queue instead of its head pulse. That
// is what breaks the Θ(n·ID_max) delivery wall: the pulse totals (Sent,
// Delivered, SentCW/CCW, Steps) are conserved exactly — batching changes
// how many pulses one transition moves, never how many pulses move.
//
// Equivalence: a batched execution realizes the pulse-by-pulse schedule
// obtained by expanding each transition into its consumed single-pulse
// deliveries back to back. The sequence numbers the batched engine
// assigns to an emitted run are exactly the numbers the expanded
// execution assigns (the BatchMachine contract makes multi-pulse
// transitions emission-uniform on a single port, so the expanded
// interleaving is per-channel contiguous), and a fault plane fires only
// in single-pulse transitions (see deliver). The batched differential
// tests replay the expanded schedule on a per-pulse simulation, with and
// without faults, and assert event-for-event equality.
//
// Per-pulse delivery stays the default: it is the finer schedule
// granularity, which Deliver, the random per-pulse schedulers and the
// exhaustive checker's witness replays need.

// WithBatching makes Run deliver whole queued runs: each transition
// offers the receiver every pulse queued on the chosen channel. A machine
// that is not a node.BatchMachine still consumes one pulse per
// transition, and Deliver stays a single pulse.
func WithBatching() Option[pulse.Pulse] {
	return func(s *Sim[pulse.Pulse]) { s.bem = &s.em }
}

// checkRunUniformity enforces the BatchMachine emission contract the
// sequence numbering relies on: a transition that consumed more than
// one pulse must emit on at most one port, with a per-pulse-uniform
// total. Violations are machine bugs; the engine aborts rather than
// silently mis-number the wire.
func checkRunUniformity[M any](buf []pendingSend[M], consumed uint64) error {
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
