package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{nil, "need -bench or -spec"},
		{[]string{"-bench", "no-such-workload"}, `unknown workload "no-such-workload"`},
		{[]string{"-bench", "VLC", "-total", "0"}, "bad -total"},
		{[]string{"-not-a-flag"}, "flag provided but not defined: -not-a-flag"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want usage exit 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("run(%q) stderr %q lacks %q", tc.args, stderr.String(), tc.msg)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stats", filepath.Join(t.TempDir(), "missing")}, &stdout, &stderr); code != 1 {
		t.Errorf("-stats of a missing file = %d, want exit 1", code)
	}
}

// TestStatsAgreeAcrossFormats writes one VLC trace in both formats and
// requires -stats to print the same summary for each, the one printed
// when the trace was generated.
func TestStatsAgreeAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	var generated string
	for _, format := range []struct{ file, flag string }{{"vlc.suittrc", "-json=false"}, {"vlc.json", "-json"}} {
		path := filepath.Join(dir, format.file)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "VLC", "-total", "1e6", format.flag, "-o", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("generating %s: exit %d: %s", format.file, code, stderr.String())
		}
		generated = strings.TrimSuffix(stdout.String(), "wrote "+path+"\n")
	}
	var stats []string
	for _, file := range []string{"vlc.suittrc", "vlc.json"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-stats", filepath.Join(dir, file)}, &stdout, &stderr); code != 0 {
			t.Fatalf("-stats %s: exit %d: %s", file, code, stderr.String())
		}
		stats = append(stats, stdout.String())
	}
	if stats[0] != stats[1] {
		t.Errorf("-stats disagree:\n--- binary ---\n%s\n--- JSON ---\n%s", stats[0], stats[1])
	}
	if stats[0] != generated {
		t.Errorf("-stats differs from the summary printed at generation:\n--- stats ---\n%s\n--- generated ---\n%s", stats[0], generated)
	}
	if !strings.Contains(stats[0], `trace "VLC": 1000000 instructions`) {
		t.Errorf("unexpected summary:\n%s", stats[0])
	}
}
