package core_test

import (
	"fmt"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/workload"
)

// Simulate SUIT on one workload and read the headline numbers: pick a
// CPU model, a workload, an operating strategy and the undervolt depth,
// run, and read the outcome relative to the pre-SUIT baseline.
func ExampleRun() {
	// The paper's server-class model 𝒞 (Intel Xeon Silver 4208) with
	// per-core frequency and voltage domains, running 557.xz: faultable
	// SIMD instructions arrive in rare bursts, SUIT's best case.
	chip := dvfs.XeonSilver4208()
	bench, ok := workload.ByName("557.xz")
	if !ok {
		fmt.Println("workload missing")
		return
	}
	// The fV strategy (Listing 1) at the −97 mV design point: instruction
	// variation plus 20 % of the aging guardband.
	outcome, err := core.Run(core.Scenario{
		Chip:       chip,
		Bench:      bench,
		Kind:       core.KindFV,
		SpendAging: true,
		Seed:       1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("SUIT on %s running %s (offset %v):\n", chip.Name, bench.Name, outcome.Offset)
	fmt.Printf("  performance: %+.2f %%\n", outcome.Change.Perf*100)
	fmt.Printf("  power:       %+.2f %%\n", outcome.Change.Power*100)
	fmt.Printf("  efficiency:  %+.2f %%\n", outcome.Efficiency*100)
	fmt.Printf("  time on efficient curve: %.1f %%\n", outcome.EfficientShare*100)
	fmt.Printf("  #DO exceptions: %d, curve switches: %d\n", outcome.Run.Exceptions, outcome.Run.Switches)
	fmt.Printf("  silent faults: %d (SUIT guarantees 0)\n", len(outcome.Run.Faults))
	// Output:
	// SUIT on Intel Xeon Silver 4208 running 557.xz (offset -97 mV):
	//   performance: +3.05 %
	//   power:       -13.97 %
	//   efficiency:  +19.79 %
	//   time on efficient curve: 98.3 %
	//   #DO exceptions: 18, curve switches: 55
	//   silent faults: 0 (SUIT guarantees 0)
}

// The §6.6 contrast on an HTTPS server whose request handling is
// dominated by AES-NI bursts: curve switching (fV) works well while
// emulation (e) is catastrophic, because every AESENC round pays the
// emulation-call delay. Dynamic (dyn, §6.8) emulates isolated traps and
// switches curves for bursts.
func ExampleRun_strategies() {
	chip := dvfs.IntelI9_9900K()
	fmt.Printf("nginx (HTTPS, AES bursts) on %s at −97 mV:\n", chip.Name)
	for _, kind := range []core.StrategyKind{core.KindFV, core.KindEmul, core.KindDynamic} {
		o, err := core.Run(core.Scenario{
			Chip:         chip,
			Bench:        workload.Nginx(),
			Kind:         kind,
			SpendAging:   true,
			Instructions: 20_000_000,
			Seed:         1,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("  %-3s perf %+6.1f %%  power %+6.1f %%  efficiency %+6.1f %%  traps %6d  emulated %6d\n",
			kind, o.Change.Perf*100, o.Change.Power*100, o.Efficiency*100, o.Run.Exceptions, o.Run.Emulated)
	}
	// Output:
	// nginx (HTTPS, AES bursts) on Intel Core i9-9900K at −97 mV:
	//   fV  perf   +0.8 %  power   -9.7 %  efficiency  +11.6 %  traps      1  emulated      0
	//   e   perf  -99.5 %  power  -64.4 %  efficiency  -98.5 %  traps 517258  emulated 517258
	//   dyn perf   +0.7 %  power   -9.7 %  efficiency  +11.6 %  traps      2  emulated      1
}
