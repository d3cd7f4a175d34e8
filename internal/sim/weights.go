package sim

import "math/bits"

// The weighted sampler behind WeightedView: a Fenwick (binary indexed)
// tree over channels in which channel c weighs queues[c].tot while it is
// deliverable and 0 otherwise. Random's pick, "the channel holding the
// x-th deliverable queued message in ascending channel order", is then
// one O(log n) descent instead of a scan over Deliverable().
//
// Weights move only where deliverability or a queue's count moves:
// refreshChan (dequeues, inits, terminations, Ready transitions and
// every fault path end there) and enqueue onto a non-empty deliverable
// channel. Both call setWeight, so between scheduler consults every
// weight is exact. Tree nodes hold partial sums modulo 2^64; each true
// sum is below 2^63, so the wrapping delta arithmetic of setWeight is
// exact.

// startWeights switches weight maintenance on and builds the tree from
// the live deliverable set in O(n). It runs at the first consult, so
// schedulers that never ask pay one predictable branch and no memory.
func (s *Sim[M]) startWeights() {
	n := len(s.queues)
	s.wOn = true
	s.wts = make([]uint64, n)
	s.wTree = make([]uint64, n+1)
	for c := range s.wts {
		if s.deliv.get(c) {
			w := s.queues[c].tot
			s.wts[c] = w
			s.wTotal += w
			s.wTree[c+1] += w
		}
	}
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			s.wTree[j] += s.wTree[i]
		}
	}
}

// setWeight sets channel c's weight to w. Callers guard it with wOn.
func (s *Sim[M]) setWeight(c int, w uint64) {
	d := w - s.wts[c]
	if d == 0 {
		return
	}
	s.wts[c] = w
	s.wTotal += d
	for i := c + 1; i < len(s.wTree); i += i & -i {
		s.wTree[i] += d
	}
}

// deliverableWeight returns the number of messages queued on deliverable
// channels, starting maintenance on the first call. ok is false in
// rescan mode, which keeps the rescan reference a scan-only oracle.
func (s *Sim[M]) deliverableWeight() (total int, ok bool) {
	if s.rescan {
		return 0, false
	}
	if !s.wOn {
		s.startWeights()
	}
	return int(s.wTotal), true
}

// deliverableAt returns the smallest channel whose prefix weight exceeds
// x: the channel an ascending scan over Deliverable() subtracting
// QueueLen from x stops at. x must be below the total weight.
func (s *Sim[M]) deliverableAt(x uint64) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(s.wts))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(s.wTree) && s.wTree[next] <= x {
			pos = next
			x -= s.wTree[next]
		}
	}
	return pos
}
