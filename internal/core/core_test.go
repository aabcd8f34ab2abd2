package core

import (
	"testing"

	"suit/internal/dvfs"
	"suit/internal/strategy"
	"suit/internal/units"
	"suit/internal/workload"
)

const testInstr = 200_000_000 // per-core instructions for SPEC scenarios

func bench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return b
}

func run(t *testing.T, s Scenario) Outcome {
	t.Helper()
	o, err := Run(s)
	if err != nil {
		t.Fatalf("Run(%s/%s): %v", s.Bench.Name, s.Kind, err)
	}
	return o
}

func TestRunValidation(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	xz := bench(t, "557.xz")
	if _, err := Run(Scenario{Chip: chip, Bench: workload.Benchmark{}, Kind: KindFV}); err == nil {
		t.Error("invalid benchmark accepted")
	}
	if _, err := Run(Scenario{Chip: chip, Bench: xz, Kind: "bogus", Instructions: 1000}); err == nil {
		t.Error("unknown strategy kind accepted")
	}
	if _, err := Run(Scenario{Chip: chip, Bench: xz, Kind: KindFV, Cores: 99, Instructions: 1000}); err == nil {
		t.Error("excess core count accepted")
	}
	bad := strategy.Params{}
	if _, err := Run(Scenario{Chip: chip, Bench: xz, Kind: KindFV, Params: &bad, Instructions: 1000}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSeventyVsNinetySevenMilliVolts(t *testing.T) {
	// §6.3: efficiency roughly doubles from −70 mV to −97 mV.
	xz := bench(t, "557.xz")
	lo := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: xz, Kind: KindFV,
		SpendAging: false, Instructions: testInstr, Seed: 1})
	hi := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: xz, Kind: KindFV,
		SpendAging: true, Instructions: testInstr, Seed: 1})
	if hi.Efficiency <= lo.Efficiency {
		t.Errorf("−97 mV efficiency %v not above −70 mV %v", hi.Efficiency, lo.Efficiency)
	}
	ratio := hi.Efficiency / lo.Efficiency
	if ratio < 1.3 || ratio > 3.0 {
		t.Errorf("efficiency ratio −97/−70 = %v, want ≈2 (quadratic voltage dependence)", ratio)
	}
}

func TestEmulationFineForSparseWorkload(t *testing.T) {
	// §6.6: emulation is beneficial for workloads with rare faultable
	// instructions (65 % of tested applications).
	o := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: bench(t, "557.xz"),
		Kind: KindEmul, SpendAging: true, Instructions: testInstr, Seed: 1})
	if o.Efficiency < 0.05 {
		t.Errorf("xz emulation efficiency = %v, want clearly positive", o.Efficiency)
	}
	if o.Run.Exceptions != o.Run.Emulated {
		t.Errorf("exceptions %d != emulated %d under pure emulation", o.Run.Exceptions, o.Run.Emulated)
	}
}

func TestNoSIMDRunsEntirelyEfficient(t *testing.T) {
	o := run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "508.namd"),
		Kind: KindNoSIMD, SpendAging: true, Instructions: testInstr, Seed: 1})
	if o.Run.Exceptions != 0 {
		t.Errorf("noSIMD run trapped %d times", o.Run.Exceptions)
	}
	if o.EfficientShare < 0.999 {
		t.Errorf("noSIMD efficient share = %v, want 1", o.EfficientShare)
	}
	// namd loses 22 % from scalarisation (Table 4) — far more than the
	// efficient curve's frequency gain recovers.
	if o.Change.Perf > -0.1 {
		t.Errorf("namd noSIMD perf = %v, want ≤−10%% (Table 4: −22%%)", o.Change.Perf)
	}
	// x264 *gains* from dropping SIMD (AVX throttling, Table 4: +7 %).
	o2 := run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "525.x264"),
		Kind: KindNoSIMD, SpendAging: true, Instructions: testInstr, Seed: 1})
	if o2.Change.Perf < 0.05 {
		t.Errorf("x264 noSIMD perf = %v, want positive", o2.Change.Perf)
	}
}

func TestUnsafeUndervoltingRecordsFaults(t *testing.T) {
	o := run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "502.gcc"),
		Kind: KindUnsafe, SpendAging: true, Instructions: testInstr, Seed: 1})
	if len(o.Run.Faults) == 0 {
		t.Fatal("blind undervolting of a faultable workload recorded no faults")
	}
	if o.Run.Exceptions != 0 {
		t.Error("pre-SUIT CPU delivered #DO exceptions")
	}
}

func TestSlowFrequencySwitchingHurtsOnB(t *testing.T) {
	// §6.5: CPU ℬ's 668 µs frequency change makes curve switching far
	// less attractive than on 𝒞 (31 µs).
	gcc := bench(t, "502.gcc")
	onB := run(t, Scenario{Chip: dvfs.AMDRyzen7700X(), Bench: gcc, Kind: KindFreq,
		SpendAging: true, Instructions: testInstr, Seed: 1})
	onC := run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: gcc, Kind: KindFV,
		SpendAging: true, Instructions: testInstr, Seed: 1})
	if onB.Change.Perf >= onC.Change.Perf {
		t.Errorf("ℬ perf %v not worse than 𝒞 %v despite 20× slower switching",
			onB.Change.Perf, onC.Change.Perf)
	}
}

func TestMultiCoreDegradesSingleDomain(t *testing.T) {
	// §6.4: 𝒜₄ sees lower efficiency than 𝒜₁ because one domain serves
	// four workloads.
	gcc := bench(t, "502.gcc")
	a1 := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: gcc, Kind: KindFV,
		Cores: 1, SpendAging: true, Instructions: testInstr, Seed: 1})
	a4 := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: gcc, Kind: KindFV,
		Cores: 4, SpendAging: true, Instructions: testInstr, Seed: 1})
	// Four streams in one domain interfere: exceptions multiply, the
	// domain spends far less time on the efficient curve, and the score
	// drops relative to the single-copy run.
	if a4.Run.Exceptions <= 2*a1.Run.Exceptions {
		t.Errorf("𝒜₄ exceptions %d not well above 𝒜₁ %d", a4.Run.Exceptions, a1.Run.Exceptions)
	}
	if a4.EfficientShare >= a1.EfficientShare-0.1 {
		t.Errorf("𝒜₄ efficient share %v not clearly below 𝒜₁ %v", a4.EfficientShare, a1.EfficientShare)
	}
	if a4.Change.Perf >= a1.Change.Perf {
		t.Errorf("𝒜₄ perf %v not below 𝒜₁ %v", a4.Change.Perf, a1.Change.Perf)
	}
	if a4.Efficiency > a1.Efficiency+0.005 {
		t.Errorf("𝒜₄ efficiency %v above 𝒜₁ %v", a4.Efficiency, a1.Efficiency)
	}
}

func TestIMULOverheadForX264Worst(t *testing.T) {
	x264, err := IMULOverheadFor(bench(t, "525.x264"))
	if err != nil {
		t.Fatal(err)
	}
	xz, err := IMULOverheadFor(bench(t, "557.xz"))
	if err != nil {
		t.Fatal(err)
	}
	if x264 <= xz {
		t.Errorf("x264 IMUL overhead %v not above xz %v", x264, xz)
	}
	if x264 < 0.005 || x264 > 0.03 {
		t.Errorf("x264 overhead = %v, want ≈1.6%%", x264)
	}
	// Cache hit must return the identical value.
	again, _ := IMULOverheadFor(bench(t, "525.x264"))
	if again != x264 {
		t.Error("IMUL overhead cache returned a different value")
	}
}

func TestParamsFor(t *testing.T) {
	if ParamsFor(dvfs.AMDRyzen7700X()) != strategy.ParamsB() {
		t.Error("ℬ must use Table 7's long-deadline parameters")
	}
	if ParamsFor(dvfs.XeonSilver4208()) != strategy.ParamsAC() {
		t.Error("𝒞 must use Table 7's 𝒜&𝒞 parameters")
	}
	if ParamsFor(dvfs.IntelI9_9900K()) != strategy.ParamsAC() {
		t.Error("𝒜 must use Table 7's 𝒜&𝒞 parameters")
	}
}

func TestUndervoltResponseShapes(t *testing.T) {
	for _, chip := range []dvfs.Chip{
		dvfs.IntelI5_1035G1(), dvfs.IntelI9_9900K(),
		dvfs.AMDRyzen7700X(), dvfs.XeonSilver4208(),
	} {
		lo := UndervoltResponse(chip, units.MilliVolts(-70))
		hi := UndervoltResponse(chip, units.MilliVolts(-97))
		if lo.Score < 0 || hi.Score < lo.Score {
			t.Errorf("%s: scores %v/%v not monotone non-negative", chip.Name, lo.Score, hi.Score)
		}
		if hi.Eff <= 0 || hi.Eff < lo.Eff {
			t.Errorf("%s: efficiency %v/%v wrong", chip.Name, lo.Eff, hi.Eff)
		}
		if hi.Power > 0.01 {
			t.Errorf("%s: power rose %v under undervolt", chip.Name, hi.Power)
		}
	}
	// The TDP-bound laptop gains far more frequency than the desktop
	// (Table 2: +12 % vs +3.3 %).
	i5 := UndervoltResponse(dvfs.IntelI5_1035G1(), units.MilliVolts(-97))
	i9 := UndervoltResponse(dvfs.IntelI9_9900K(), units.MilliVolts(-97))
	if i5.Freq <= i9.Freq {
		t.Errorf("i5 freq gain %v not above i9 %v", i5.Freq, i9.Freq)
	}
}

func TestHeterogeneousCoRunners(t *testing.T) {
	// A sparse primary (557.xz) with a dense co-runner (520.omnetpp) on
	// the single-domain 𝒜: the co-runner parks the shared domain on the
	// conservative curve and destroys the primary's efficiency gain.
	xz := bench(t, "557.xz")
	omnetpp := bench(t, "520.omnetpp")
	alone := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: xz, Kind: KindFV,
		SpendAging: true, Instructions: testInstr, Seed: 1})
	shared := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: xz, Kind: KindFV,
		CoBenches:  []workload.Benchmark{omnetpp},
		SpendAging: true, Instructions: testInstr, Seed: 1})
	if shared.EfficientShare > alone.EfficientShare/2 {
		t.Errorf("dense co-runner left E-share at %v (alone: %v)",
			shared.EfficientShare, alone.EfficientShare)
	}
	// On a per-core-domain chip the co-runner cannot interfere.
	isolated := run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: xz, Kind: KindFV,
		CoBenches:  []workload.Benchmark{omnetpp},
		SpendAging: true, Instructions: testInstr, Seed: 1})
	if isolated.EfficientShare < 0.9 {
		t.Errorf("per-core domains: xz E-share %v despite isolation", isolated.EfficientShare)
	}
	if len(shared.Run.Faults)+len(isolated.Run.Faults) != 0 {
		t.Error("co-located runs faulted")
	}
}

func TestCoBenchesValidation(t *testing.T) {
	xz := bench(t, "557.xz")
	many := make([]workload.Benchmark, 8)
	for i := range many {
		many[i] = xz
	}
	if _, err := Run(Scenario{Chip: dvfs.XeonSilver4208(), Bench: xz, Kind: KindFV,
		CoBenches: many, Instructions: 1000}); err == nil {
		t.Error("9 streams on 8 cores accepted")
	}
	if _, err := Run(Scenario{Chip: dvfs.XeonSilver4208(), Bench: xz, Kind: KindFV,
		CoBenches: []workload.Benchmark{{}}, Instructions: 1000}); err == nil {
		t.Error("invalid co-runner accepted")
	}
}

func TestTEEWorkloadRejectsEmulation(t *testing.T) {
	// §4.3: emulation is not possible inside a TEE; curve switching is.
	enclave := bench(t, "nginx")
	enclave.Name = "nginx-sgx"
	enclave.TEE = true
	if _, err := Run(Scenario{Chip: dvfs.IntelI9_9900K(), Bench: enclave,
		Kind: KindEmul, Instructions: 10_000_000}); err == nil {
		t.Error("emulation accepted for a TEE workload")
	}
	if _, err := Run(Scenario{Chip: dvfs.IntelI9_9900K(), Bench: enclave,
		Kind: KindDynamic, Instructions: 10_000_000}); err == nil {
		t.Error("dynamic (emulation-capable) strategy accepted for a TEE workload")
	}
	o := run(t, Scenario{Chip: dvfs.IntelI9_9900K(), Bench: enclave,
		Kind: KindFV, SpendAging: true, Instructions: 50_000_000, Seed: 1})
	if len(o.Run.Faults) != 0 {
		t.Error("TEE workload faulted under fV")
	}
}

func TestRunDeterministicAcrossInvocations(t *testing.T) {
	s := Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "502.gcc"),
		Kind: KindFV, SpendAging: true, Instructions: 100_000_000, Seed: 42}
	a := run(t, s)
	b := run(t, s)
	if a.Run.Duration != b.Run.Duration || a.Run.Energy != b.Run.Energy ||
		a.Run.Exceptions != b.Run.Exceptions {
		t.Errorf("non-deterministic outcomes: %+v vs %+v", a.Run, b.Run)
	}
}

func TestRunNStatistics(t *testing.T) {
	st, err := RunN(Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "502.gcc"),
		Kind: KindFV, SpendAging: true, Instructions: 100_000_000, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 || len(st.Outcomes) != 4 {
		t.Fatalf("N=%d outcomes=%d", st.N, len(st.Outcomes))
	}
	// Different seeds produce different traces: some spread, but small
	// relative to the mean (the paper's σ are small for the fV rows).
	if st.EffSigma <= 0 {
		t.Error("zero efficiency spread across seeds is implausible")
	}
	if st.EffSigma > st.Eff/2 {
		t.Errorf("efficiency σ %v too large vs mean %v", st.EffSigma, st.Eff)
	}
	if st.Share < 0.5 || st.Share > 1 {
		t.Errorf("mean efficient share %v out of range", st.Share)
	}
	if _, err := RunN(Scenario{}, 1); err == nil {
		t.Error("RunN with one seed accepted")
	}
}
