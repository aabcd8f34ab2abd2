package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuarantineCorruptEntry: a garbled cache file must read as a miss,
// be moved aside so it is never parsed again, and the job recomputed —
// never a wrong result, never a failed sweep.
func TestQuarantineCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	in := specs(4)
	warm := New(specKey, computeFn, Options{Workers: 2, BaseSeed: 3, CacheDir: dir})
	want, err := warm.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	path := CachePath(dir, 3, specKey(in[1]))
	if err := os.WriteFile(path, []byte(`{"key": "spec-1", "result": {tor`), 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(specKey, computeFn, Options{Workers: 2, BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatalf("corrupt cache entry failed the sweep: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spec %d changed after corruption recovery: %+v vs %+v", i, got[i], want[i])
		}
	}
	st := e.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (%+v)", st.Quarantined, st)
	}
	if st.Ran != 1 || st.DiskHits != 3 {
		t.Errorf("stats = %+v, want exactly the damaged job recomputed", st)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Errorf("corrupt file was not quarantined: %v", err)
	}
	// The recomputation must have healed the original slot.
	if _, err := os.Stat(path); err != nil {
		t.Errorf("healed cache entry missing: %v", err)
	}
}

// TestBitFlipInsideResultDetected: damage that still parses as JSON —
// the nastiest torn-write case — must be caught by the integrity digest
// rather than returning a silently wrong number.
func TestBitFlipInsideResultDetected(t *testing.T) {
	dir := t.TempDir()
	in := specs(1)
	warm := New(specKey, computeFn, Options{BaseSeed: 3, CacheDir: dir})
	want, err := warm.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	path := CachePath(dir, 3, specKey(in[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		t.Fatal(err)
	}
	// Flip the cached value while keeping the entry valid JSON.
	var r testResult
	if err := json.Unmarshal(ent.Result, &r); err != nil {
		t.Fatal(err)
	}
	r.Val += 0.25
	ent.Result, _ = json.Marshal(r)
	flipped, _ := json.Marshal(ent) // stale Sum: exactly what a torn write produces
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(specKey, computeFn, Options{BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("bit-flipped entry served a wrong result: %+v, want %+v", got[0], want[0])
	}
	if st := e.Stats(); st.Quarantined != 1 || st.Ran != 1 {
		t.Errorf("stats = %+v, want the flipped entry quarantined and recomputed", st)
	}
}

// TestForeignEntryIsMissNotQuarantine: a healthy entry for a different
// fingerprint at the same filename (hash collision) is a miss, but not
// damage — it must stay on disk untouched.
func TestForeignEntryIsMissNotQuarantine(t *testing.T) {
	dir := t.TempDir()
	key := specKey(testSpec{ID: 0})
	raw, _ := json.Marshal(testResult{ID: 99, Val: 0.5})
	foreign, _ := json.Marshal(cacheEntry{Key: "someone-else", Result: raw, Sum: entrySum("someone-else", raw)})
	path := CachePath(dir, 0, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(specKey, computeFn, Options{CacheDir: dir})
	if _, ok := e.diskGet(key); ok {
		t.Fatal("foreign entry served as a hit")
	}
	if st := e.Stats(); st.Quarantined != 0 {
		t.Errorf("healthy foreign entry was quarantined: %+v", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("foreign entry should stay in place: %v", err)
	}
}

// TestCleanStaleTemps: orphaned temp files from a killed mid-write
// process are swept when the cache directory is opened; fresh temp
// files (a concurrent live sweep) and real entries survive.
func TestCleanStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-123456")
	fresh := filepath.Join(dir, ".tmp-654321")
	entry := filepath.Join(dir, "deadbeef.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if n := cleanStaleTemps(dir); n != 1 {
		t.Fatalf("removed %d temp files, want 1", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the sweep")
	}
	for _, p := range []string{fresh, entry} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s should survive the sweep: %v", filepath.Base(p), err)
		}
	}
}

// TestRunSweepsTempsOnce: the engine triggers the cleanup when it first
// touches its cache directory.
func TestRunSweepsTempsOnce(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-zzz")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	e := New(specKey, computeFn, Options{CacheDir: dir})
	if _, err := e.Run(context.Background(), specs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("Run did not sweep the stale temp file")
	}
}

// FuzzCacheEntryDecode asserts the on-disk decoder's safety property
// over arbitrary bytes: truncated, garbled or foreign input always
// reads as a miss or as quarantinable corruption — never as a wrong
// result and never as a panic.
func FuzzCacheEntryDecode(f *testing.F) {
	key := specKey(testSpec{ID: 7})
	raw, _ := json.Marshal(testResult{ID: 7, Seed: 42, Val: 0.042})
	valid, _ := json.Marshal(cacheEntry{Key: key, Result: raw, Sum: entrySum(key, raw)})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"key":"spec-7","result":{"ID":8},"sum":"00"}`))
	f.Add([]byte(`{"key":"other","result":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok, corrupt := decodeEntry[testResult](data, key)
		if ok && corrupt {
			t.Fatal("decode reported both a hit and corruption")
		}
		if !ok {
			if r != (testResult{}) {
				t.Fatalf("miss leaked a non-zero result: %+v", r)
			}
			return
		}
		// A hit must be exactly a well-formed entry for this key whose
		// integrity digest matches — re-derive everything independently.
		var ent cacheEntry
		if err := json.Unmarshal(data, &ent); err != nil {
			t.Fatalf("hit from undecodable bytes: %v", err)
		}
		if ent.Key != key {
			t.Fatalf("hit for foreign key %q", ent.Key)
		}
		if ent.Sum != entrySum(ent.Key, ent.Result) {
			t.Fatal("hit with a mismatched integrity digest")
		}
		var want testResult
		if err := json.Unmarshal(ent.Result, &want); err != nil {
			t.Fatalf("hit with undecodable result: %v", err)
		}
		if r != want {
			t.Fatalf("decoded result %+v differs from entry payload %+v", r, want)
		}
	})
}

// TestDecodeEntryRejectsMissingSum: entries from before the integrity
// digest (or with a stripped digest) are treated as corrupt, not
// trusted.
func TestDecodeEntryRejectsMissingSum(t *testing.T) {
	key := "spec-1"
	raw, _ := json.Marshal(testResult{ID: 1})
	legacy, _ := json.Marshal(struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}{Key: key, Result: raw})
	if _, ok, corrupt := decodeEntry[testResult](legacy, key); ok || !corrupt {
		t.Errorf("digest-less entry: ok=%v corrupt=%v, want miss+corrupt", ok, corrupt)
	}
}

// TestEarlierRevisionEntryIsPlainMiss: an entry a build of an earlier
// results revision wrote — well-formed, correctly keyed and digested,
// but holding results the current simulator would not produce — sits at
// the revision-less path of that build. It must be neither served nor
// quarantined: the job recomputes and the old file stays untouched.
func TestEarlierRevisionEntryIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	in := specs(1)
	key := specKey(in[0])
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|base=%d", key, 3)))
	oldPath := filepath.Join(dir, hex.EncodeToString(sum[:16])+".json")
	if oldPath == CachePath(dir, 3, key) {
		t.Fatal("current cache path equals the revision-1 path")
	}
	stale, err := json.Marshal(testResult{ID: 0, Val: -1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cacheEntry{Key: key, Result: stale, Sum: entrySum(key, stale)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(specKey, computeFn, Options{BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Val == -1 {
		t.Fatal("served the earlier revision's result")
	}
	if st := e.Stats(); st.Ran != 1 || st.DiskHits != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want one recomputation, no disk hit, no quarantine", st)
	}
	if after, err := os.ReadFile(oldPath); err != nil || string(after) != string(data) {
		t.Errorf("earlier-revision entry was touched (err %v)", err)
	}
	if _, err := os.Stat(oldPath + quarantineSuffix); !os.IsNotExist(err) {
		t.Errorf("earlier-revision entry was quarantined (stat err %v)", err)
	}
}
