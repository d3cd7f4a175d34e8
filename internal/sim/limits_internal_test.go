package sim

import (
	"math"
	"testing"
)

// TestRingSizeLimit checks the constructors' size gate directly (building
// a 2^30-node ring to hit it through New would take tens of gigabytes):
// every channel id of an accepted ring fits in int32, where the wiring
// cache and the heaps store it, and one node more is rejected.
func TestRingSizeLimit(t *testing.T) {
	if err := checkRingSize(maxNodes); err != nil {
		t.Fatalf("ring of %d nodes rejected: %v", maxNodes, err)
	}
	if maxChan := chanID(maxNodes-1, 1); maxChan > math.MaxInt32 {
		t.Fatalf("largest channel id %d of an accepted ring overflows int32", maxChan)
	}
	if err := checkRingSize(maxNodes + 1); err == nil {
		t.Fatalf("ring of %d nodes accepted; its channel ids overflow int32", maxNodes+1)
	}
}
