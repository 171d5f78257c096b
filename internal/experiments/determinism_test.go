package experiments

import (
	"reflect"
	"testing"
)

// TestFig12Deterministic: Figure 12 replays exactly under its seed. A
// journey's nonce and subscription secret are minted from the world's
// seeded entropy, so its compressed upload — and the link time it costs
// — is the same bytes on every run.
func TestFig12Deterministic(t *testing.T) {
	first, err := Fig12(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 5; run++ {
		rows, err := Fig12(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, first) {
			t.Fatalf("run %d: %+v, first run %+v", run, rows, first)
		}
	}
}
