package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// cacheEntry is the on-disk record: the full key is stored alongside the
// result so a filename hash collision reads as a miss, never as a wrong
// result, and an integrity digest over (key, result) detects garbled
// bytes that still happen to parse as JSON — a bit-flip inside a cached
// number would otherwise read back as a silently wrong result.
type cacheEntry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	Sum    string          `json:"sum"`
}

// entrySum is the integrity digest stored in Sum: SHA-256 over the key
// and the raw result bytes.
func entrySum(key string, result []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// quarantineSuffix marks a corrupt cache file that was set aside: the
// entry stops being parsed on every lookup but stays on disk for
// inspection. Quarantined files are ignored by the cache forever.
const quarantineSuffix = ".quarantined"

// tmpPattern is the os.CreateTemp pattern for in-flight cache writes;
// cleanStaleTemps matches files it produces.
const tmpPattern = ".tmp-*"

// staleTempAge is how old an orphaned temp file must be before the
// cleanup sweep removes it. Generous enough that a temp file belonging
// to a concurrent live sweep (written and renamed within milliseconds)
// is never touched.
const staleTempAge = 10 * time.Minute

// resultsRevision versions what a cached result means. A fingerprint
// describes the work, not the simulator that did it, so a change that
// moves result bits without moving any fingerprint bumps this: entries
// written by earlier builds then live at other paths and are plain
// misses. Revision 2: per-epoch closed-form energy (revision 1, whose
// paths carried no revision, integrated energy per segment by Simpson's
// rule).
const resultsRevision = 2

// CachePath returns the on-disk cache file for a (cache dir, base seed,
// fingerprint) triple: entries bucket by the SHA-256 of the key, base
// seed and results revision, so caches warmed under different -seed
// values or by builds with different result semantics never alias.
// Exported so chaos tests and tooling can locate a specific entry.
func CachePath(dir string, baseSeed uint64, key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|base=%d|rev=%d", key, baseSeed, resultsRevision)))
	return filepath.Join(dir, hex.EncodeToString(sum[:16])+".json")
}

func (e *Engine[S, R]) cachePath(key string) string {
	return CachePath(e.opts.CacheDir, e.opts.BaseSeed, key)
}

// decodeEntry parses an on-disk cache entry for key. ok reports a
// usable result; corrupt distinguishes undecodable bytes (truncated or
// garbled files, which the caller should quarantine) from a well-formed
// entry that simply belongs to a different key (a filename-hash
// collision — a miss, but not damage).
func decodeEntry[R any](data []byte, key string) (r R, ok, corrupt bool) {
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return r, false, true
	}
	if ent.Key != key {
		// Distinguish a healthy foreign entry (filename-hash collision)
		// from one whose key bytes were damaged: a foreign entry still
		// carries a digest consistent with its own key.
		if ent.Sum == entrySum(ent.Key, ent.Result) {
			return r, false, false
		}
		return r, false, true
	}
	if ent.Sum != entrySum(ent.Key, ent.Result) {
		return r, false, true
	}
	if err := json.Unmarshal(ent.Result, &r); err != nil {
		var zero R
		return zero, false, true
	}
	return r, true, false
}

// diskGet loads a cached result. A missing or foreign entry is a miss;
// a corrupt (truncated, torn, garbled) entry is quarantined so it is
// never parsed again and the job is recomputed — corruption can cost a
// recomputation, never a wrong result and never a failed sweep.
func (e *Engine[S, R]) diskGet(key string) (R, bool) {
	var zero R
	if e.opts.CacheDir == "" {
		return zero, false
	}
	path := e.cachePath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	r, ok, corrupt := decodeEntry[R](data, key)
	if corrupt {
		e.quarantine(path)
		return zero, false
	}
	return r, ok
}

// quarantine sets a corrupt cache file aside (best-effort: if the
// rename fails the file is removed instead, and if that fails too the
// entry simply stays a slow miss).
func (e *Engine[S, R]) quarantine(path string) {
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		os.Remove(path)
	}
	e.mu.Lock()
	e.stats.Quarantined++
	e.mu.Unlock()
}

// diskPut persists a result via write-to-temp + rename so concurrent
// sweeps sharing a cache directory never observe torn files. Cache
// writes are best-effort: a full disk or unmarshalable result type only
// disables reuse, it never fails the sweep.
func (e *Engine[S, R]) diskPut(key string, r R) {
	if e.opts.CacheDir == "" {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return
	}
	data, err := json.Marshal(cacheEntry{Key: key, Result: raw, Sum: entrySum(key, raw)})
	if err != nil {
		return
	}
	if err := os.MkdirAll(e.opts.CacheDir, 0o755); err != nil {
		return
	}
	path := e.cachePath(key)
	tmp, err := os.CreateTemp(e.opts.CacheDir, tmpPattern)
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// cleanStaleTemps removes orphaned temp files that a killed process
// left behind mid-write (the temp-file + rename protocol never cleans
// them up on SIGKILL). Only files matching the temp pattern and older
// than staleTempAge are removed, so the in-flight writes of concurrent
// live sweeps sharing the directory are safe. Best-effort: an
// unreadable directory just skips the sweep.
func cleanStaleTemps(dir string) (removed int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-staleTempAge) //lint:allow determinism the temp-file age check is cache-directory hygiene; it cannot influence any result
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ".tmp-") {
			continue
		}
		info, err := ent.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}
