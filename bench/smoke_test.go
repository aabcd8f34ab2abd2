package main

import (
	"math"
	"testing"
)

// TestWorkloadsSmoke runs every workload at toy size in this process,
// untraced and traced, and checks that each run is correct, reports
// every end-to-end metric it measures itself, and fills the per-layer
// metrics of the layers it reaches.
func TestWorkloadsSmoke(t *testing.T) {
	toy = true
	defer func() { toy = false }()
	// The layers each workload reaches, by a per-layer metric that must
	// come out positive in its traced run.
	reaches := map[string][]string{
		"sweep-table7": {"trace.events", "cpu.step_ms", "core.run_ms_p50", "engine.self_ms"},
		"cells-table6": {"trace.events", "cpu.step_ms", "core.run_ms_p50", "engine.self_ms"},
		"sparse-grid":  {"trace.events", "cpu.step_ms", "core.run_ms_p50", "engine.self_ms"},
		"served":       {"service.post_ms_p50", "service.hit_ms_p50", "service.handler_ms.submit", "service.files_written"},
		"served-dist":  {"service.post_ms_p50", "dist.claim_ms_p50", "dist.lease_ms_p50", "dist.handler_ms.result"},
	}
	digests := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := env{seed: 3, tmpDir: t.TempDir()}
			if traced {
				e.rec = newRecorder()
			}
			inst, err := w.start(e)
			if err != nil {
				t.Fatalf("%s: start: %v", w.name, err)
			}
			res, err := inst.run(0.01)
			if cerr := inst.close(); cerr != nil {
				t.Errorf("%s: close: %v", w.name, cerr)
			}
			if err != nil {
				t.Fatalf("%s: run: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range []string{"points_per_s", "job_p50_ms"} {
				if v := res.Metrics[m]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s (traced %t): %s = %v", w.name, traced, m, v)
				}
			}
			if d, ok := digests[w.name]; ok && d != res.Digest {
				t.Errorf("%s: traced digest %s differs from untraced %s", w.name, res.Digest, d)
			}
			digests[w.name] = res.Digest
			if !traced {
				continue
			}
			for _, m := range reaches[w.name] {
				if !(res.Layers[m] > 0) {
					t.Errorf("%s: per-layer %s = %v, want > 0", w.name, m, res.Layers[m])
				}
			}
			if len(e.rec.snapshot()) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
	// served-dist runs the same fresh specs as served, so the digested
	// prefix of their results is the same.
	if digests["served"] != digests["served-dist"] {
		t.Errorf("served digest %s != served-dist digest %s", digests["served"], digests["served-dist"])
	}
}
