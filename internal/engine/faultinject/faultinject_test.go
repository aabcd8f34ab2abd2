package faultinject

import (
	"os"
	"path/filepath"
	"strings"
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
	// Same content + same seed → same damage, whatever the path: a
	// segment's name carries a random part.
	var first []byte
	for i, name := range []string{"rev3-seed0-1.jsonl", "rev3-seed0-2.jsonl"} {
		p := filepath.Join(t.TempDir(), name)
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
			t.Error("CorruptFile is not deterministic for a fixed (content, seed)")
		}
	}
}

func TestCorruptFileMissingFile(t *testing.T) {
	if err := CorruptFile(filepath.Join(t.TempDir(), "nope.json"), 0); err == nil {
		t.Error("CorruptFile on a missing file must error")
	}
}

// TestCorruptFileDamagesOneRecord: in a segment of several records,
// every mode changes the last record only, so the others stay whole.
func TestCorruptFileDamagesOneRecord(t *testing.T) {
	orig := "{\"key\":\"a\",\"result\":1,\"sum\":\"x\"}\n{\"key\":\"b\",\"result\":22,\"sum\":\"y\"}\n{\"key\":\"c\",\"result\":333,\"sum\":\"z\"}\n"
	for seed := uint64(0); seed < 9; seed++ {
		p := filepath.Join(t.TempDir(), "segment.jsonl")
		if err := os.WriteFile(p, []byte(orig), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(p, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		before := strings.Split(strings.TrimSuffix(orig, "\n"), "\n")
		after := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
		if len(after) != len(before) || after[0] != before[0] || after[1] != before[1] || after[2] == before[2] {
			t.Errorf("seed %d: records %q, want only the last of %q damaged", seed, after, before)
		}
	}
}
