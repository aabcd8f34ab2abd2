package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ResultsRevision versions what a result means, for the whole fleet. A
// fingerprint describes the work, not the simulator that did it, so a
// change that moves result bits without moving any fingerprint bumps
// this: cache segments of other revisions are plain misses, suitd job
// IDs (fingerprints prefixed suitd/v<N>) move, and the dispatcher
// refuses claims from workers built at another revision. Revision 2
// brought per-epoch closed-form energy; revision 3, append-only cache
// segments and outcomes without the scenario echo.
const ResultsRevision = 3

// record is one line of a segment. Its digest over key and result makes
// damage that still parses as JSON — a bit-flip inside a cached number
// — read as damage, never as a silently wrong result.
type record struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	Sum    string          `json:"sum"`
}

// ResultDigest is the integrity digest over a job's result JSON: SHA-256
// of (key, 0x00, result), truncated to 16 bytes. Cache records carry it,
// and so do internal/dist's result messages.
func ResultDigest(key string, result []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// parseRecord decodes one segment line; ok means its digest checks.
func parseRecord(line []byte) (rec record, ok bool) {
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, false
	}
	return rec, rec.Sum == ResultDigest(rec.Key, rec.Result)
}

// decodeRecord reads a record's bytes back as key's result.
func decodeRecord[R any](line []byte, key string) (r R, ok bool) {
	rec, ok := parseRecord(line)
	if !ok || rec.Key != key || json.Unmarshal(rec.Result, &r) != nil {
		var zero R
		return zero, false
	}
	return r, true
}

// segmentPrefix starts the name of every segment an engine of this
// revision and base seed reads or writes; a random part and
// segmentSuffix follow. Nothing else in the directory matches it.
func segmentPrefix(baseSeed uint64) string {
	return fmt.Sprintf("rev%d-seed%d-", ResultsRevision, baseSeed)
}

const segmentSuffix = ".jsonl"

// spot locates one record.
type spot struct {
	path string
	off  int64
	n    int
}

// segments is an engine's disk cache: an index of the directory's
// records when the engine first ran, and its own segment, created on
// its first write and open for the engine's life. Later records are not
// indexed: the memo holds this engine's own, and the next engine sees
// other processes'.
type segments struct {
	once  sync.Once
	index map[string]spot // read-only once built

	mu      sync.Mutex
	w       *os.File
	stopped bool // a write failed; this engine writes no more
}

// indexSegment adds one segment's records to index, the first per key
// winning, and returns how many it skipped as damaged. A record ends at
// a newline; a process killed mid-append leaves a last record without
// one, kept only if it is whole.
func indexSegment(index map[string]spot, path string, data []byte) (bad int64) {
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			n = len(data) - off
		}
		if n > 0 {
			if rec, ok := parseRecord(data[off : off+n]); !ok {
				bad++
			} else if _, dup := index[rec.Key]; !dup {
				index[rec.Key] = spot{path: path, off: int64(off), n: n}
			}
		}
		off += n + 1
	}
	return bad
}

// openCache indexes the cache directory's segments of this revision and
// base seed, counting damaged records in Quarantined. No directory (or
// no CacheDir) indexes as empty, and an unreadable segment costs
// recomputations, never a failed sweep.
func (e *Engine[S, R]) openCache() {
	e.disk.index = make(map[string]spot)
	ents, _ := os.ReadDir(e.opts.CacheDir)
	prefix := segmentPrefix(e.opts.BaseSeed)
	var bad int64
	for _, ent := range ents {
		name := ent.Name()
		if !ent.Type().IsRegular() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		path := filepath.Join(e.opts.CacheDir, name)
		if data, err := os.ReadFile(path); err == nil {
			bad += indexSegment(e.disk.index, path, data)
		}
	}
	e.mu.Lock()
	e.stats.Quarantined += bad
	e.mu.Unlock()
}

// diskGet reads key's record back from its segment. A record that no
// longer reads back whole is a miss counted in Quarantined: damage can
// cost a recomputation, never a wrong result.
func (e *Engine[S, R]) diskGet(key string) (R, bool) {
	var zero R
	s, ok := e.disk.index[key]
	if !ok {
		return zero, false
	}
	f, err := os.Open(s.path)
	if err != nil {
		return zero, false
	}
	defer f.Close()
	line := make([]byte, s.n)
	if _, err := f.ReadAt(line, s.off); err == nil {
		if r, ok := decodeRecord[R](line, key); ok {
			return r, true
		}
	}
	e.mu.Lock()
	e.stats.Quarantined++
	e.mu.Unlock()
	return zero, false
}

// diskPut appends key's record to the engine's segment, creating it on
// the first write; one write per record under the lock, so records
// never interleave. Writes are best-effort: a failed one stops this
// engine's writes (a partial record reads as damage at the next open)
// but never fails the sweep.
func (e *Engine[S, R]) diskPut(key string, r R) {
	if e.opts.CacheDir == "" {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return
	}
	data, err := json.Marshal(record{Key: key, Result: raw, Sum: ResultDigest(key, raw)})
	if err != nil {
		return
	}
	data = append(data, '\n')
	d := &e.disk
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	if d.w == nil {
		if err = os.MkdirAll(e.opts.CacheDir, 0o755); err == nil {
			d.w, err = os.CreateTemp(e.opts.CacheDir, segmentPrefix(e.opts.BaseSeed)+"*"+segmentSuffix)
		}
	}
	if err == nil {
		_, err = d.w.Write(data)
	}
	if err != nil {
		d.stopped = true
	}
}
