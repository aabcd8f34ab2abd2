package core

import (
	"math"
	"testing"

	"suit/internal/uarch"
	"suit/internal/workload"
)

// TestIMULTableMatchesLiveStudy pins the baked hardened-IMUL slowdown
// table to the live out-of-order study bit for bit: every shipped
// workload must have a table entry, and every table entry must equal
// exactly what uarch.Slowdown computes for that mix today. A model or
// mix change that shifts any slowdown by even one ulp fails here until
// the table is regenerated.
func TestIMULTableMatchesLiveStudy(t *testing.T) {
	covered := make(map[[2]uint64]bool, len(imulBaked))
	for _, b := range workload.All() {
		key := imulMixKey(b)
		baked, ok := imulBaked[key]
		if !ok {
			t.Errorf("%s: no baked entry for mix key %#x", b.Name, key)
			continue
		}
		covered[key] = true
		live, err := uarch.Slowdown(uarch.DefaultConfig(), b.Mix(), 200_000, 1, 4)
		if err != nil {
			t.Fatalf("%s: live study: %v", b.Name, err)
		}
		if live < 0 {
			live = 0 // IMULOverheadFor's clamp
		}
		if math.Float64bits(live) != baked {
			t.Errorf("%s: baked 0x%016x (%g) != live 0x%016x (%g); regenerate imultable.go",
				b.Name, baked, math.Float64frombits(baked), math.Float64bits(live), live)
		}
	}
	for key := range imulBaked {
		if !covered[key] {
			t.Errorf("stale baked entry %#x matches no shipped workload", key)
		}
	}
}

// TestIMULOverheadForCustomMixFallsThrough ensures a mix that is not in
// the baked table still takes the live computation path, and that the
// memo is keyed by the mix: two benchmarks that share a name but not a
// mix each get their own study.
func TestIMULOverheadForCustomMixFallsThrough(t *testing.T) {
	for _, frac := range []float64{0.0123, 0.0456} { // not shipped values: miss the baked table
		b := workload.Nginx()
		b.Name = "same-name"
		b.IMULFraction = frac
		if _, ok := imulBaked[imulMixKey(b)]; ok {
			t.Fatal("test premise broken: custom mix unexpectedly present in baked table")
		}
		got, err := IMULOverheadFor(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uarch.Slowdown(uarch.DefaultConfig(), b.Mix(), 200_000, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = 0
		}
		if got != want {
			t.Errorf("IMULFraction %g: IMULOverheadFor %g != live study %g", frac, got, want)
		}
	}
}
