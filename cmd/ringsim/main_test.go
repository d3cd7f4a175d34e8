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
