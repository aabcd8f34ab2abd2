package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{nil, "suitworker: -daemon is required"},
		{[]string{"-slots", "1"}, "suitworker: -daemon is required"},
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

// TestTokenFromEnvironmentAndFlag points the worker at a daemon stub that
// has no work and records the bearer header of the first claim:
// $SUITD_WORKER_TOKEN is the default token, and -token overrides it. Like
// the daemon, the stub holds a claim until the worker's request goes
// away.
func TestTokenFromEnvironmentAndFlag(t *testing.T) {
	t.Setenv("SUITD_WORKER_TOKEN", "from-env")
	cases := []struct {
		flags []string
		want  string
	}{
		{nil, "Bearer from-env"},
		{[]string{"-token", "from-flag"}, "Bearer from-flag"},
	}
	for _, tc := range cases {
		header := make(chan string, 1)
		daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/work/claim" {
				select {
				case header <- r.Header.Get("Authorization"):
				default:
				}
			}
			// No work: hold the claim. The server notices the worker go
			// away only once the request body has been read.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}))
		ctx, cancel := context.WithCancel(context.Background())
		code := make(chan int, 1)
		args := append([]string{"-daemon", daemon.URL, "-id", "w1", "-slots", "1"}, tc.flags...)
		go func() { code <- run(ctx, args, io.Discard, io.Discard) }()

		select {
		case got := <-header:
			if got != tc.want {
				t.Errorf("flags %q: claim carried %q, want %q", tc.flags, got, tc.want)
			}
		case <-time.After(time.Minute):
			t.Fatalf("flags %q: the worker never claimed", tc.flags)
		}
		cancel()
		if c := <-code; c != exitOK {
			t.Errorf("flags %q: exit %d after the stop, want %d", tc.flags, c, exitOK)
		}
		daemon.Close()
	}
}
