// Package faultinject deterministically injects faults so the
// recovery paths that production keeps can be exercised by reproducible
// chaos tests: CorruptFile damages a scenario cache entry (which must
// read back as a quarantined miss), and the HTTP transport in
// http.go drops, delays, fails, tears or duplicates the dist tier's
// requests. The related undervolting literature validates resilience
// the same way (hardware vs. software fault injection of undervolted
// SRAMs; Scrooge-style crash/recovery of undervolted nodes): faults are
// chosen by a pure function of (fingerprint, fault seed), never by the
// wall clock or the global rand source, so a chaos run replays
// bit-for-bit.
package faultinject

import (
	"errors"
	"fmt"
	"os"

	"suit/internal/engine"
)

// ErrInjected is the base error every injected transport error wraps.
var ErrInjected = errors.New("injected fault")

// CorruptFile deterministically damages a file in place — the
// software analogue of a torn or bit-flipped cache write. mode cycles
// by seed over truncation, garbling the middle bytes, and replacing the
// content with non-JSON noise; every mode must read back as a cache
// miss (quarantine), never as a result.
func CorruptFile(path string, seed uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h := engine.DeriveSeed(seed, "corrupt|"+path)
	switch h % 3 {
	case 0: // truncate mid-entry
		data = data[:len(data)/2]
	case 1: // flip bytes in the middle (may or may not stay valid JSON;
		// the cache's integrity digest catches the valid-JSON case)
		for i := len(data) / 3; i < len(data)/3+8 && i < len(data); i++ {
			data[i] ^= byte(h>>((uint(i)%7)*8)) | 1
		}
	default: // replace with noise that is not JSON at all
		data = []byte(fmt.Sprintf("\x00\xff suit chaos noise %d", h))
	}
	return os.WriteFile(path, data, 0o644)
}
