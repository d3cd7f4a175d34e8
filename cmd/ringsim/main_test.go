package main

import (
	"reflect"
	"testing"
)

// TestParseFlips pins the -flips grammar shared by the plain and the
// faulted runs: a comma list of 0 and 1 tokens, blanks around a token
// allowed, the empty flag meaning an oriented ring, and every other
// token an error rather than a silent 0.
func TestParseFlips(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []bool
		ok   bool
	}{
		{"", nil, true},
		{"1", []bool{true}, true},
		{"1,0,1", []bool{true, false, true}, true},
		{" 0 , 1 ", []bool{false, true}, true},
		{"1,yes,0", nil, false},
		{"1,,0", nil, false},
		{"2", nil, false},
		{"true", nil, false},
		{"01", nil, false},
		{"1,0,", nil, false},
	} {
		got, err := parseFlips(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseFlips(%q): err = %v, want ok = %t", tc.in, err, tc.ok)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFlips(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCheckModes pins which run-mode flags combine: scale mode (-batch)
// takes a fault plane but no per-event output, live runtime or port
// flips, and -heal needs a faulted live run.
func TestCheckModes(t *testing.T) {
	type modes struct{ batch, live, trace, faults, flips, heal bool }
	for _, tc := range []struct {
		name string
		m    modes
		ok   bool
	}{
		{"plain", modes{}, true},
		{"batch", modes{batch: true}, true},
		{"batch+faults", modes{batch: true, faults: true}, true},
		{"faults", modes{faults: true}, true},
		{"faults+flips", modes{faults: true, flips: true}, true},
		{"faults+live", modes{faults: true, live: true}, true},
		{"faults+live+heal", modes{faults: true, live: true, heal: true}, true},
		{"trace", modes{trace: true}, true},
		{"trace+flips", modes{trace: true, flips: true}, true},
		{"live", modes{live: true}, true},
		{"batch+live", modes{batch: true, live: true}, false},
		{"batch+trace", modes{batch: true, trace: true}, false},
		{"batch+flips", modes{batch: true, flips: true}, false},
		{"batch+faults+heal", modes{batch: true, faults: true, heal: true}, false},
		{"faults+trace", modes{faults: true, trace: true}, false},
		{"faults+heal", modes{faults: true, heal: true}, false},
		{"heal", modes{heal: true}, false},
		{"live+heal", modes{live: true, heal: true}, false},
		{"trace+live", modes{trace: true, live: true}, false},
	} {
		m := tc.m
		err := checkModes(m.batch, m.live, m.trace, m.faults, m.flips, m.heal)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkModes = %v, want ok = %t", tc.name, err, tc.ok)
		}
	}
}
