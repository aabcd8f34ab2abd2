package faultinject

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCorruptFileModesChangeBytes(t *testing.T) {
	orig := []byte(`{"key":"k","result":{"v":12345},"sum":"abc"}`)
	// Distinct seeds exercise different modes; every mode must change the
	// on-disk bytes so the cache integrity check has something to catch.
	for seed := uint64(0); seed < 6; seed++ {
		p := filepath.Join(t.TempDir(), "entry.json")
		if err := os.WriteFile(p, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(p, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == string(orig) {
			t.Errorf("seed %d: CorruptFile left the file unchanged", seed)
		}
	}
}

func TestCorruptFileDeterministic(t *testing.T) {
	orig := []byte(`{"key":"k","result":1,"sum":"x"}`)
	dir := t.TempDir()
	// Same relative content + same seed on the same path → same damage.
	p := filepath.Join(dir, "e.json")
	var first []byte
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(p, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(p, 3); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(p)
		if i == 0 {
			first = got
		} else if string(got) != string(first) {
			t.Error("CorruptFile is not deterministic for a fixed (path, seed)")
		}
	}
}

func TestCorruptFileMissingFile(t *testing.T) {
	if err := CorruptFile(filepath.Join(t.TempDir(), "nope.json"), 0); err == nil {
		t.Error("CorruptFile on a missing file must error")
	}
}
