package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"suit/internal/core"
)

var (
	helpLine   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?[0-9.e+-]+|NaN|\+Inf|-Inf)$`)
)

// parsePromText is a strict mini-parser for Prometheus text exposition
// format 0.0.4: every line must be a HELP comment, a TYPE comment, or a
// sample; every sample must follow its metric's TYPE; HELP/TYPE come
// before the first sample of their metric. Returns sample values keyed
// by full series name (metric plus label set).
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	values := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !helpLine.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", n, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", n, line)
			}
			typed[m[1]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", n, line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", n, line)
		}
		if !typed[m[1]] {
			t.Fatalf("line %d: sample %q before its # TYPE", n, m[1])
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", n, line, err)
		}
		values[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values
}

func TestMetricsPrometheusFormat(t *testing.T) {
	svc, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)

	job, _, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if _, _, err := svc.Submit(tinySpec(2, 1)); err != nil { // dedup hit
		t.Fatal(err)
	}

	var b strings.Builder
	if err := svc.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	values := parsePromText(t, b.String())

	want := map[string]float64{
		"suitd_submissions_total":        2,
		"suitd_cache_hits_total":         1,
		"suitd_singleflight_dedup_total": 1,
		"suitd_result_store_hits_total":  0,
		"suitd_rejected_total":           0,
		"suitd_jobs_executed_total":      1,
		"suitd_queue_depth":              0,
		"suitd_engine_ran_total":         2,
		`suitd_jobs{state="done"}`:       1,
		`suitd_jobs{state="queued"}`:     0,
	}
	for name, v := range want {
		got, ok := values[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	for _, state := range States {
		if _, ok := values[fmt.Sprintf("suitd_jobs{state=%q}", string(state))]; !ok {
			t.Errorf("per-state gauge for %q missing", state)
		}
	}
}

// TestFailedScenarioFailsJob: a scenario whose run fails ends its job
// failed, with the scenario's fingerprint in the job error, and /metrics
// counts the failed scenario once.
func TestFailedScenarioFailsJob(t *testing.T) {
	spec, err := tinySpec(2, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	scs, _, err := spec.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	bad := scs[1].Fingerprint()
	cfg := Config{EngineWorkers: 1}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		if sc.Fingerprint() == bad {
			return core.Outcome{}, errors.New("simulated failure")
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, ts := newTestServer(t, cfg)
	job, _, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, job); snap.State != StateFailed || !strings.Contains(snap.Error, bad) {
		t.Fatalf("job ended %s (%q), want failed naming %q", snap.State, snap.Error, bad)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := parsePromText(t, readAll(t, resp))["suitd_engine_failed_total"]; got != 1 {
		t.Errorf("suitd_engine_failed_total = %g, want 1", got)
	}
}

func TestMetricsHTTPContentType(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	parsePromText(t, b.String()) // strict-parses clean even when idle
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
