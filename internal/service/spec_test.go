package service

import (
	"strings"
	"testing"

	"suit/internal/engine"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s, err := Spec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindSweep || s.Chip != "C" || s.OffsetMV != 97 ||
		s.Instructions != 2_000_000 || s.Seed != 1 || s.Top != 10 {
		t.Errorf("defaults wrong: %+v", s)
	}
	if len(s.Benches) != 5 {
		t.Errorf("default benches = %v", s.Benches)
	}
	if len(s.Params) != 0 {
		t.Errorf("sweep default params should stay empty (implied grid), got %v", s.Params)
	}
}

func TestSpecNormalizeSimDefaultsParams(t *testing.T) {
	s, err := Spec{Kind: KindSim}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Params) != 1 {
		t.Fatalf("sim params = %v, want the chip default setting", s.Params)
	}
	// Chip C takes the 𝒜&𝒞 Table 7 defaults: 30 µs / 450 µs / 3 / 14.
	p := s.Params[0]
	if p.DeadlineUS != 30 || p.TimeSpanUS != 450 || p.MaxExceptions != 3 || p.DeadlineFactor != 14 {
		t.Errorf("sim default params = %+v", p)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Kind: "frob"},
		{Chip: "Z"},
		{OffsetMV: 50},
		{Instructions: 100},
		{Top: -1},
		{Benches: []string{"no-such-workload"}},
		{Params: []ParamSpec{{DeadlineUS: -1, TimeSpanUS: 450, MaxExceptions: 3, DeadlineFactor: 14}}},
	}
	for i, c := range cases {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("case %d (%+v): want error", i, c)
		}
	}
}

func TestSpecContentAddressing(t *testing.T) {
	a, err := Spec{Chip: "c", Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{}.Normalize() // same after defaults
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() || a.ID() != b.ID() {
		t.Errorf("equivalent specs got different identities:\n  %s\n  %s", a.Fingerprint(), b.Fingerprint())
	}
	c, err := Spec{Seed: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == a.ID() {
		t.Error("different seeds must have different IDs")
	}
	if len(a.ID()) != 32 || strings.ToLower(a.ID()) != a.ID() {
		t.Errorf("ID should be 32 lowercase hex chars, got %q", a.ID())
	}
}

// TestSpecScenarioSeeds: the explicit per-scenario seeds must equal
// what a dedicated engine with BaseSeed = Spec.Seed would derive —
// DeriveSeed over the scenario's recording key — so a served sweep
// matches `suitsweep -seed N` point for point; and the grid points of
// one workload replay one recording, so they share a seed.
func TestSpecScenarioSeeds(t *testing.T) {
	s, err := Spec{
		Benches: []string{"VLC", "557.xz"},
		Params: []ParamSpec{
			{DeadlineUS: 30, TimeSpanUS: 450, MaxExceptions: 3, DeadlineFactor: 14},
			{DeadlineUS: 50, TimeSpanUS: 900, MaxExceptions: 2, DeadlineFactor: 9},
		},
		Seed: 7,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	scs, grid, err := s.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 || len(grid) != 2 {
		t.Fatalf("expansion: %d scenarios, %d grid points", len(scs), len(grid))
	}
	for i, sc := range scs {
		if want := engine.DeriveSeed(7, sc.SeedKey()); sc.Seed != want {
			t.Errorf("scenario %d seed %d, want DeriveSeed(spec.Seed, recording key) = %d", i, sc.Seed, want)
		}
	}
	// scs is grid-major: [p0/VLC, p0/xz, p1/VLC, p1/xz].
	if scs[0].Seed != scs[2].Seed || scs[1].Seed != scs[3].Seed {
		t.Errorf("two grid points of one workload got different seeds: %d/%d, %d/%d",
			scs[0].Seed, scs[2].Seed, scs[1].Seed, scs[3].Seed)
	}
	if scs[0].Seed == scs[1].Seed {
		t.Error("two workloads got one seed")
	}
}
