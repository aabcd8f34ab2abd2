// Package faultinject deterministically injects faults so the
// recovery paths that production keeps can be exercised by reproducible
// chaos tests: CorruptFile damages the last record of a scenario cache
// segment (which must read back as a skipped, counted miss), and the
// HTTP transport in http.go drops, delays, fails, tears or duplicates
// the dist tier's requests. The related undervolting literature
// validates resilience the same way (hardware vs. software fault
// injection of undervolted SRAMs; Scrooge-style crash/recovery of
// undervolted nodes): faults are chosen by a pure function of
// (fingerprint, fault seed), never by the wall clock or the global rand
// source, so a chaos run replays bit-for-bit.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"suit/internal/engine"
)

// ErrInjected is the base error every injected transport error wraps.
var ErrInjected = errors.New("injected fault")

// CorruptFile deterministically damages the last record (line) of a
// cache segment in place — the software analogue of a torn or
// bit-flipped append. mode cycles by seed over truncation, garbling the
// middle bytes, and replacing the record with non-JSON noise; every
// mode must read back as one damaged record (a miss), never as a
// result, and leaves the records before it whole. The damage depends on
// seed alone, not on the path, whose name a segment's writer randomizes.
func CorruptFile(path string, seed uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	last := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n') + 1
	rec := data[last:]
	h := engine.DeriveSeed(seed, "corrupt")
	switch h % 3 {
	case 0: // truncate mid-record
		data = data[:last+len(rec)/2]
	case 1: // flip bytes in the middle (may or may not stay valid JSON;
		// the cache's integrity digest catches the valid-JSON case)
		for i := len(rec) / 3; i < len(rec)/3+8 && i < len(rec); i++ {
			rec[i] ^= byte(h>>((uint(i)%7)*8)) | 1
			if rec[i] == '\n' {
				rec[i] ^= 0x80 // never split the record in two
			}
		}
	default: // replace with noise that is not JSON at all
		data = append(data[:last], fmt.Sprintf("\x00\xff suit chaos noise %d", h)...)
	}
	return os.WriteFile(path, data, 0o644)
}
