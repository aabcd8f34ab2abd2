package sched

import (
	"testing"

	"suit/internal/dvfs"
	"suit/internal/workload"
)

func tasks(t *testing.T) []workload.Benchmark {
	t.Helper()
	// Order matters for the Spread policy: sparse, sparse, dense, dense —
	// round-robin then lands one conservative-bound task on each cluster.
	var out []workload.Benchmark
	for _, n := range []string{"557.xz", "505.mcf", "520.omnetpp", "521.wrf"} {
		b, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("workload %s missing", n)
		}
		out = append(out, b)
	}
	return out
}

func testCfg(t *testing.T) Config {
	return Config{
		Chip:            dvfs.IntelI9_9900K(), // 8 cores → 2 clusters of 2
		Clusters:        2,
		CoresPerCluster: 2,
		Tasks:           tasks(t),
		Instructions:    100_000_000,
		SpendAging:      true,
		Seed:            1,
	}
}

func TestFaultableDensityOrdering(t *testing.T) {
	xz, _ := workload.ByName("557.xz")
	omnetpp, _ := workload.ByName("520.omnetpp")
	if FaultableDensity(omnetpp) <= FaultableDensity(xz) {
		t.Error("omnetpp must be denser than xz")
	}
	if FaultableDensity(workload.Benchmark{}) != 0 {
		t.Error("empty benchmark has nonzero density")
	}
}

func TestSpreadRoundRobin(t *testing.T) {
	ts := tasks(t)
	a := Spread(ts, 2)
	want := Assignment{0, 1, 0, 1}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("Spread[%d] = %d, want %d", i, a[i], want[i])
		}
	}
}

func TestPackByDensityGroupsDenseTasks(t *testing.T) {
	ts := tasks(t) // xz (sparse), mcf (sparse), omnetpp (dense), wrf (dense)
	a := PackByDensity(ts, 2, 2)
	if a[2] != a[3] {
		t.Errorf("dense tasks split across clusters: %v", a)
	}
	if a[0] != a[1] {
		t.Errorf("sparse tasks split across clusters: %v", a)
	}
	if a[0] == a[2] {
		t.Errorf("sparse and dense share a cluster: %v", a)
	}
	if err := a.Validate(2, 2); err != nil {
		t.Error(err)
	}
}

func TestAssignmentValidate(t *testing.T) {
	if err := (Assignment{0, 1, 0, 1}).Validate(2, 2); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if err := (Assignment{0, 0, 0}).Validate(2, 2); err == nil {
		t.Error("over-capacity assignment accepted")
	}
	if err := (Assignment{0, 5}).Validate(2, 2); err == nil {
		t.Error("out-of-range cluster accepted")
	}
}

func TestEvaluateValidation(t *testing.T) {
	c := testCfg(t)
	if _, err := Evaluate(c, Assignment{0}); err == nil {
		t.Error("short assignment accepted")
	}
	bad := c
	bad.Clusters = 0
	if _, err := Evaluate(bad, Spread(c.Tasks, 1)); err == nil {
		t.Error("zero clusters accepted")
	}
	big := c
	big.Clusters = 5
	big.CoresPerCluster = 2
	if _, err := Evaluate(big, Spread(c.Tasks, 5)); err == nil {
		t.Error("cluster grid beyond the chip accepted")
	}
	empty := c
	empty.Tasks = nil
	if _, err := Evaluate(empty, Assignment{}); err == nil {
		t.Error("empty task set accepted")
	}
}

func TestPackingBeatsSpreading(t *testing.T) {
	// The §7 scheduling claim: packing the conservative-bound tasks onto
	// one cluster leaves the other cluster on the efficient curve, which
	// spreading cannot.
	spread, packed, err := Compare(testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if packed.Eff <= spread.Eff {
		t.Errorf("packing eff %v not above spreading %v", packed.Eff, spread.Eff)
	}
	// With a dense task on each cluster, spreading gains almost nothing.
	if spread.Eff > packed.Eff/2 {
		t.Errorf("spreading eff %v suspiciously close to packing %v", spread.Eff, packed.Eff)
	}
	if packed.Exceptions == 0 || len(packed.PerTask) != 4 {
		t.Errorf("packed result incomplete: %+v", packed)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	c := testCfg(t)
	a := PackByDensity(c.Tasks, 2, 2)
	r1, err := Evaluate(c, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Eff != r2.Eff || r1.Exceptions != r2.Exceptions {
		t.Error("evaluation not deterministic")
	}
}
