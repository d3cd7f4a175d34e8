package main

import "testing"

// TestStatusKB pins the /proc/self/status field parser: the finish line
// reads VmHWM (the peak) and the ticker VmRSS (the current size), so
// the two must never be confused, and a missing or malformed field
// reads as 0.
func TestStatusKB(t *testing.T) {
	const status = "Name:\tringsim\nVmPeak:\t 4000000 kB\nVmHWM:\t  336000 kB\nVmRSS:\t  120000 kB\nVmRSSX:\t 7 kB\nBad:\tx kB\nEmpty:\n"
	for _, tc := range []struct {
		field string
		want  uint64
	}{
		{"VmHWM", 336000},
		{"VmRSS", 120000},
		{"VmPeak", 4000000},
		{"VmSwap", 0},
		{"Bad", 0},
		{"Empty", 0},
		{"Vm", 0},
	} {
		if got := statusKB(status, tc.field); got != tc.want {
			t.Errorf("statusKB(%q) = %d, want %d", tc.field, got, tc.want)
		}
	}
	if got := statusKB("", "VmHWM"); got != 0 {
		t.Errorf("statusKB on empty status = %d, want 0", got)
	}
}
