package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{nil, "suitd: -state is required"},
		{[]string{"-addr", "127.0.0.1:0"}, "suitd: -state is required"},
		{[]string{"-not-a-flag"}, "flag provided but not defined: -not-a-flag"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%q) = %d, want usage exit %d", tc.args, code, exitUsage)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("run(%q) stderr %q lacks %q", tc.args, stderr.String(), tc.msg)
		}
	}
}

// TestCancelDrainsAndExitsZero boots the daemon on a free loopback port,
// checks that it answers /healthz, cancels its context as SIGTERM would,
// and requires a clean drain with exit 0.
func TestCancelDrainsAndExitsZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-addr", "127.0.0.1:0", "-state", t.TempDir(), "-j", "1"}, io.Discard, pw)
		pw.Close()
	}()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("daemon wrote nothing: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 4 || fields[1] != "serving" {
		t.Fatalf("first line %q, want the serving line", sc.Text())
	}
	var rest []string
	restDone := make(chan struct{})
	go func() {
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		close(restDone)
	}()

	resp, err := http.Get("http://" + fields[3] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d", resp.StatusCode)
	}

	cancel()
	select {
	case c := <-code:
		if c != exitOK {
			t.Errorf("exit %d after the drain, want %d", c, exitOK)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not exit after its context was cancelled")
	}
	<-restDone
	if len(rest) == 0 || rest[len(rest)-1] != "suitd: drained" {
		t.Errorf("stderr after the serving line: %q, want it to end with the drain", rest)
	}
}
