package cpu

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/trace"
	"suit/internal/units"
)

// randomBatchMember builds one randomized (Config, Strategy) pair for
// the batch differential: mixed core counts (multi-core members are not
// fast-forward eligible, so both stepping regimes appear in one batch),
// mixed chips and all four test strategies.
func randomBatchMember(rng *rand.Rand) (Config, Strategy) {
	ncores := 1 + rng.IntN(3)
	total := uint64(150_000 + rng.IntN(400_000))
	var trs []*trace.Trace
	for c := 0; c < ncores; c++ {
		trs = append(trs, randomDiffTrace(rng, total))
	}
	cfg := testConfig(trs...)
	cfg.Seed = rng.Uint64()
	if rng.IntN(2) == 1 {
		cfg.Chip = dvfs.AMDRyzen7700X()
	}
	if rng.IntN(3) == 0 {
		cfg.SampleEvery = units.Microseconds(50)
	}
	var s Strategy
	switch rng.IntN(4) {
	case 0:
		s = fvLite{deadline: units.Microseconds(float64(5 + rng.IntN(50)))}
	case 1:
		s = fvThrash{
			deadline:      units.Microseconds(float64(5 + rng.IntN(50))),
			window:        units.Microseconds(float64(100 + rng.IntN(900))),
			maxExceptions: 1 + rng.IntN(5),
		}
	case 2:
		s = emulAll{}
	default:
		s = pinnedBase{}
	}
	return cfg, s
}

// TestDifferentialBatchedVsSolo is the batched-execution oracle: K
// randomized machines co-stepped through Batch.Run must dispatch the
// exact (t, kind, who) event sequence per member — and produce
// bitwise-identical Results — as the same K machines run solo.
// Co-stepping only interleaves work across machines, never reorders it
// within one.
func TestDifferentialBatchedVsSolo(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))
	for _, k := range []int{2, 4, 8} {
		for iter := 0; iter < 6; iter++ {
			cfgs := make([]Config, k)
			strats := make([]Strategy, k)
			for i := range cfgs {
				cfgs[i], strats[i] = randomBatchMember(rng)
			}

			soloLogs := make([][]eventRecord, k)
			soloRes := make([]Result, k)
			for i := range cfgs {
				m, err := New(cfgs[i], strats[i])
				if err != nil {
					t.Fatalf("k=%d iter=%d member %d: %v", k, iter, i, err)
				}
				m.evLog = &soloLogs[i]
				if soloRes[i], err = m.Run(); err != nil {
					t.Fatalf("k=%d iter=%d member %d solo run: %v", k, iter, i, err)
				}
			}

			batchLogs := make([][]eventRecord, k)
			ms := make([]*Machine, k)
			for i := range cfgs {
				m, err := New(cfgs[i], strats[i])
				if err != nil {
					t.Fatalf("k=%d iter=%d member %d: %v", k, iter, i, err)
				}
				m.evLog = &batchLogs[i]
				ms[i] = m
			}
			b, err := NewBatch(ms)
			if err != nil {
				t.Fatalf("k=%d iter=%d: NewBatch: %v", k, iter, err)
			}
			batchRes, err := b.Run()
			if err != nil {
				t.Fatalf("k=%d iter=%d: batch run: %v", k, iter, err)
			}
			if len(batchRes) != k {
				t.Fatalf("k=%d iter=%d: batch returned %d results", k, iter, len(batchRes))
			}

			for i := 0; i < k; i++ {
				if len(soloLogs[i]) != len(batchLogs[i]) {
					t.Fatalf("k=%d iter=%d member %d (%s): solo dispatched %d events, batched %d",
						k, iter, i, strats[i].Name(), len(soloLogs[i]), len(batchLogs[i]))
				}
				for j := range soloLogs[i] {
					if soloLogs[i][j] != batchLogs[i][j] {
						t.Fatalf("k=%d iter=%d member %d (%s): event %d diverges: solo (t=%v kind=%d who=%d) vs batched (t=%v kind=%d who=%d)",
							k, iter, i, strats[i].Name(), j,
							soloLogs[i][j].t, soloLogs[i][j].kind, soloLogs[i][j].who,
							batchLogs[i][j].t, batchLogs[i][j].kind, batchLogs[i][j].who)
					}
				}
				if !reflect.DeepEqual(soloRes[i], batchRes[i]) {
					t.Fatalf("k=%d iter=%d member %d (%s): results diverge:\nsolo:    %+v\nbatched: %+v",
						k, iter, i, strats[i].Name(), soloRes[i], batchRes[i])
				}
			}
		}
	}
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewBatch([]*Machine{nil}); err == nil {
		t.Error("nil member accepted")
	}
}
