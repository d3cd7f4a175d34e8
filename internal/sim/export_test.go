package sim

// WithRescanDeliverable makes Deliverable recompute the deliverable set
// with a full scan over every channel on every call, instead of reading
// the incrementally maintained set. It is the retained naive reference
// implementation: the two must agree exactly (same channels, same
// ascending order), which the scheduler-trace differential tests assert
// for every stock scheduler.
func WithRescanDeliverable[M any]() Option[M] {
	return func(s *Sim[M]) { s.rescan = true }
}
