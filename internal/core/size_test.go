package core_test

import (
	"testing"
	"unsafe"

	"coleader/internal/core"
)

// TestMachineSizes pins the pointer machines' sizes at their allocator
// size classes (48, 64, 64, 64 and 80 bytes). A 10^6-node ring holds one
// machine per node, so a field added later, or a reorder that brings back
// padding, shows up here as a deliberate budget change rather than as a
// silent jump to the next size class.
func TestMachineSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Alg1", unsafe.Sizeof(core.Alg1{}), 48},
		{"Alg2", unsafe.Sizeof(core.Alg2{}), 64},
		{"Alg2Unguarded", unsafe.Sizeof(core.Alg2Unguarded{}), 64},
		{"Alg3", unsafe.Sizeof(core.Alg3{}), 64},
		{"Alg3Resample", unsafe.Sizeof(core.Alg3Resample{}), 80},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.max)
		}
	}
}
