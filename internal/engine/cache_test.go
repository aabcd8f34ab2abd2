package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// segmentFiles lists the segments in dir that an engine with baseSeed
// reads.
func segmentFiles(t *testing.T, dir string, baseSeed uint64) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentPrefix(baseSeed)+"*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlySegment returns the one segment in dir.
func onlySegment(t *testing.T, dir string, baseSeed uint64) string {
	t.Helper()
	paths := segmentFiles(t, dir, baseSeed)
	if len(paths) != 1 {
		t.Fatalf("%d segments in the cache dir, want 1: %v", len(paths), paths)
	}
	return paths[0]
}

// editRecord rewrites the record for key in the segment at path.
func editRecord(t *testing.T, path, key string, edit func(line []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	found := false
	for i, line := range lines {
		if rec, ok := parseRecord(bytes.TrimSuffix(line, []byte("\n"))); ok && rec.Key == key {
			lines[i] = edit(line)
			found = true
		}
	}
	if !found {
		t.Fatalf("no record for %q in %s", key, path)
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOneSegmentPerEngine: a cold run appends every result to one new
// segment; a warm run that only hits writes nothing.
func TestOneSegmentPerEngine(t *testing.T) {
	dir := t.TempDir()
	in := specs(12)
	if _, err := New(specKey, computeFn, Options{Workers: 4, BaseSeed: 9, CacheDir: dir}).Run(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(onlySegment(t, dir, 9))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != len(in) {
		t.Errorf("segment holds %d records, want %d", n, len(in))
	}
	if _, err := New(specKey, computeFn, Options{BaseSeed: 9, CacheDir: dir}).Run(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("a warm run left %d files in the cache dir, want 1", len(ents))
	}
}

// TestQuarantineCorruptEntry: a garbled record must read as a miss, be
// counted, and its job recomputed — never a wrong result, never a
// failed sweep.
func TestQuarantineCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	in := specs(4)
	warm := New(specKey, computeFn, Options{Workers: 2, BaseSeed: 3, CacheDir: dir})
	want, err := warm.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	editRecord(t, onlySegment(t, dir, 3), specKey(in[1]), func([]byte) []byte {
		return []byte(`{"key": "spec-1", "result": {tor` + "\n")
	})

	e := New(specKey, computeFn, Options{Workers: 2, BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatalf("corrupt cache record failed the sweep: %v", err)
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
	// The recomputation lands in the second engine's own segment.
	if n := len(segmentFiles(t, dir, 3)); n != 2 {
		t.Errorf("%d segments after the recomputation, want 2", n)
	}
}

// TestTornLastRecordRecomputed: a process killed mid-append leaves its
// segment's last record cut short, without a newline. The next engine
// skips and counts it, serves the whole records before it, and
// recomputes the torn one.
func TestTornLastRecordRecomputed(t *testing.T) {
	dir := t.TempDir()
	in := specs(3)
	want, err := New(specKey, computeFn, Options{Workers: 1, BaseSeed: 5, CacheDir: dir}).Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	path := onlySegment(t, dir, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := data[:last+(len(data)-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(specKey, computeFn, Options{BaseSeed: 5, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spec %d changed after a torn record: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st := e.Stats(); st.Quarantined != 1 || st.Ran != 1 || st.DiskHits != 2 {
		t.Errorf("stats = %+v, want the torn record counted and recomputed, the rest served", st)
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

	editRecord(t, onlySegment(t, dir, 3), specKey(in[0]), func(line []byte) []byte {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		// Change the cached value while keeping the record valid JSON.
		var r testResult
		if err := json.Unmarshal(rec.Result, &r); err != nil {
			t.Fatal(err)
		}
		r.Val += 0.25
		rec.Result, _ = json.Marshal(r)
		edited, _ := json.Marshal(rec) // stale Sum: exactly what a torn write produces
		return append(edited, '\n')
	})

	e := New(specKey, computeFn, Options{BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("edited record served a wrong result: %+v, want %+v", got[0], want[0])
	}
	if st := e.Stats(); st.Quarantined != 1 || st.Ran != 1 {
		t.Errorf("stats = %+v, want the edited record counted and recomputed", st)
	}
}

// TestSharedDirSeenFromNextOpen: two engines on one directory index it
// when they first run, so neither sees what the other appends during
// its lifetime; an engine opened afterwards sees both segments.
func TestSharedDirSeenFromNextOpen(t *testing.T) {
	dir := t.TempDir()
	a := New(specKey, computeFn, Options{CacheDir: dir})
	b := New(specKey, computeFn, Options{CacheDir: dir})
	for _, e := range []*Engine[testSpec, testResult]{a, b} {
		if _, err := e.Run(context.Background(), nil); err != nil { // opens the cache
			t.Fatal(err)
		}
	}
	if _, err := a.Run(context.Background(), specs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), []testSpec{{ID: 9}}); err != nil {
		t.Fatal(err)
	}
	// a's records are on disk, but b indexed the directory before a
	// wrote them.
	if _, err := b.Run(context.Background(), specs(2)); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.DiskHits != 0 || st.Ran != 3 {
		t.Errorf("b mid-run: %+v, want 3 ran and no disk hit", st)
	}
	if _, err := a.Run(context.Background(), []testSpec{{ID: 9}}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.DiskHits != 0 || st.Ran != 3 {
		t.Errorf("a mid-run: %+v, want 3 ran and no disk hit", st)
	}

	c := New(specKey, computeFn, Options{CacheDir: dir})
	if _, err := c.Run(context.Background(), append(specs(2), testSpec{ID: 9})); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 3 || st.Ran != 0 || st.Quarantined != 0 {
		t.Errorf("next open: %+v, want 3 disk hits from two segments", st)
	}
}

// TestUnwritableCacheNeverFailsSweep: a cache directory that cannot be
// created costs reuse, never the sweep.
func TestUnwritableCacheNeverFailsSweep(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(specKey, computeFn, Options{CacheDir: filepath.Join(file, "cache")})
	if _, err := e.Run(context.Background(), specs(3)); err != nil {
		t.Fatalf("an unwritable cache failed the sweep: %v", err)
	}
	if st := e.Stats(); st.Ran != 3 {
		t.Errorf("stats = %+v, want 3 ran", st)
	}
}

// FuzzCacheEntryDecode asserts the segment decoder's safety property
// over arbitrary segment bytes: torn, garbled or foreign records are
// misses or counted damage — never a wrong result and never a panic.
// Whatever the index finds for the key is read back the way a hit is.
func FuzzCacheEntryDecode(f *testing.F) {
	key := specKey(testSpec{ID: 7})
	raw, _ := json.Marshal(testResult{ID: 7, Seed: 42, Val: 0.042})
	valid, _ := json.Marshal(record{Key: key, Result: raw, Sum: ResultDigest(key, raw)})
	otherRaw, _ := json.Marshal(testResult{ID: 8})
	other, _ := json.Marshal(record{Key: "spec-8", Result: otherRaw, Sum: ResultDigest("spec-8", otherRaw)})
	nl := []byte("\n")
	f.Add(append(valid, '\n'))
	f.Add(bytes.Join([][]byte{other, valid[:len(valid)/2]}, nl))
	f.Add([]byte(`{"key":"spec-7","result":{"ID":8},"sum":"00"}` + "\n"))
	f.Add(bytes.Join([][]byte{[]byte(`{"key":"other","result":1}`), valid, nil}, nl))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, '\n', '\n', 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		index := make(map[string]spot)
		bad := indexSegment(index, "segment", data)
		records := int64(0)
		for _, line := range bytes.Split(data, nl) {
			if len(line) > 0 {
				records++
			}
		}
		if bad+int64(len(index)) > records {
			t.Fatalf("%d damaged and %d indexed records from %d lines", bad, len(index), records)
		}
		s, ok := index[key]
		if !ok {
			return
		}
		if s.off < 0 || int(s.off)+s.n > len(data) {
			t.Fatalf("spot %+v outside a %d-byte segment", s, len(data))
		}
		line := data[s.off : int(s.off)+s.n]
		r, ok := decodeRecord[testResult](line, key)
		if !ok {
			if r != (testResult{}) {
				t.Fatalf("miss leaked a non-zero result: %+v", r)
			}
			return
		}
		// A hit must be exactly one well-formed record for this key whose
		// integrity digest matches — re-derive everything independently.
		if bytes.Contains(line, nl) {
			t.Fatal("hit spans more than one line")
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("hit from undecodable bytes: %v", err)
		}
		if rec.Key != key {
			t.Fatalf("hit for foreign key %q", rec.Key)
		}
		if rec.Sum != ResultDigest(rec.Key, rec.Result) {
			t.Fatal("hit with a mismatched integrity digest")
		}
		var want testResult
		if err := json.Unmarshal(rec.Result, &want); err != nil {
			t.Fatalf("hit with undecodable result: %v", err)
		}
		if r != want {
			t.Fatalf("decoded result %+v differs from record payload %+v", r, want)
		}
	})
}

// TestDecodeEntryRejectsMissingSum: a record without its integrity
// digest (or with a stripped one) is damage, not trusted.
func TestDecodeEntryRejectsMissingSum(t *testing.T) {
	key := "spec-1"
	raw, _ := json.Marshal(testResult{ID: 1})
	legacy, _ := json.Marshal(struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}{Key: key, Result: raw})
	if _, ok := decodeRecord[testResult](legacy, key); ok {
		t.Error("digest-less record decoded as a hit")
	}
	if bad := indexSegment(make(map[string]spot), "segment", legacy); bad != 1 {
		t.Errorf("digest-less record: %d damaged, want 1", bad)
	}
}

// TestEarlierRevisionEntryIsPlainMiss: records the current engine must
// not read — a well-formed segment of an earlier results revision or of
// another base seed, and a per-result *.json file of an earlier build —
// are neither served nor counted, and stay untouched.
func TestEarlierRevisionEntryIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	in := specs(1)
	key := specKey(in[0])
	stale, err := json.Marshal(testResult{ID: 0, Val: -1})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(record{Key: key, Result: stale, Sum: ResultDigest(key, stale)})
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string][]byte{
		fmt.Sprintf("rev%d-seed3-1%s", ResultsRevision-1, segmentSuffix): append(line, '\n'),
		segmentPrefix(4) + "1" + segmentSuffix:                           append(line, '\n'),
		"0123456789abcdef0123456789abcdef.json":                          line,
		"0123456789abcdef0123456789abcdef.json.quarantined":              []byte("garbage"),
	}
	for name, data := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := New(specKey, computeFn, Options{BaseSeed: 3, CacheDir: dir})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Val == -1 {
		t.Fatal("served a record from another revision, seed or format")
	}
	if st := e.Stats(); st.Ran != 1 || st.DiskHits != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want one recomputation, no disk hit, nothing counted", st)
	}
	for name, data := range foreign {
		if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s was touched (err %v)", name, err)
		}
	}
	onlySegment(t, dir, 3) // the recomputation's
}
