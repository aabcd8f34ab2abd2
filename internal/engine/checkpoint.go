package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// checkpointMagic versions the journal format; the config line follows
// it so a journal can never be replayed against a different run setup.
const checkpointMagic = "suit-checkpoint v1"

// Checkpoint is an append-only journal of completed job fingerprints,
// kept next to the disk cache. Together the two give crash-safe
// resume: the cache holds the finished results, the journal records
// which jobs of this sweep configuration finished, so a killed run
// restarted with the same configuration recomputes only the missing
// jobs and can report how much work was already done. Each completion
// is appended (one short hash line) as it happens, so even a SIGKILL
// loses at most the in-flight jobs.
//
// A nil *Checkpoint is valid and inert, so callers can thread an
// optional journal without nil checks.
type Checkpoint struct {
	path   string
	config string

	mu   sync.Mutex
	f    *os.File
	done map[string]bool
}

// hashKey shortens a fingerprint to a fixed-width journal line. The
// same digest family as the cache filenames, so journal lines never
// contain sweep internals verbatim.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// OpenCheckpoint opens the journal at path. config must canonically
// describe the run (command, flags, base seed): it is stored in the
// journal header and a resume against a journal written under a
// different config is refused, so stale journals cannot silently
// mislabel work as done.
//
// With resume=false any existing journal is truncated and a fresh
// header written; with resume=true an existing journal's completed set
// is loaded (a missing file starts empty). Unparseable journal lines
// are ignored — a torn final line from a killed process costs at most
// one recomputation.
func OpenCheckpoint(path, config string, resume bool) (*Checkpoint, error) {
	if strings.ContainsAny(config, "\n\r") {
		return nil, fmt.Errorf("checkpoint config must be a single line: %q", config)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	cp := &Checkpoint{path: path, config: config, done: make(map[string]bool)}

	if resume {
		if err := cp.load(); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	cp.f = f
	// A fresh (truncated) journal and a resume of a not-yet-existing
	// file both start at size 0 and need the header.
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if _, err := fmt.Fprintf(f, "%s %s\n", checkpointMagic, config); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return cp, nil
}

// load reads an existing journal into the completed set, validating the
// header against the expected config.
func (c *Checkpoint) load() error {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil // empty file: treat as fresh
	}
	header := sc.Text()
	rest, ok := strings.CutPrefix(header, checkpointMagic+" ")
	if !ok {
		return fmt.Errorf("checkpoint %s: not a checkpoint journal (header %q)", c.path, header)
	}
	if rest != c.config {
		return fmt.Errorf("checkpoint %s was written by a different run configuration:\n  journal: %s\n  current: %s\nre-run without -resume to start over", c.path, rest, c.config)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if len(line) == 32 && isHex(line) {
			c.done[line] = true
		}
	}
	return sc.Err()
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// Done reports whether a previous run journaled the fingerprint as
// complete. Safe on a nil Checkpoint (always false).
func (c *Checkpoint) Done(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[hashKey(key)]
}

// Completed is the number of distinct fingerprints journaled so far.
// Safe on a nil Checkpoint (0).
func (c *Checkpoint) Completed() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Record journals a completed fingerprint. Idempotent; each new entry
// is appended and reaches the file immediately (no userspace
// buffering), so an interrupt after Record never loses the completion.
// Journal I/O is best-effort: a full disk disables resume, it never
// fails the sweep. Safe on a nil Checkpoint (no-op).
func (c *Checkpoint) Record(key string) {
	if c == nil {
		return
	}
	h := hashKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[h] || c.f == nil {
		if !c.done[h] {
			c.done[h] = true // journal closed: keep the in-memory set coherent
		}
		return
	}
	c.done[h] = true
	fmt.Fprintf(c.f, "%s\n", h)
}

// Close flushes and closes the journal file. The in-memory completed
// set stays usable. Safe on a nil Checkpoint.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
