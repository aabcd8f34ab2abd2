// Command tracegen generates, inspects and converts SUIT instruction
// traces (§5.1's QEMU-plugin substitute).
//
// Examples:
//
//	tracegen -bench nginx -total 2e8 -o nginx.suittrc     # generate
//	tracegen -stats nginx.suittrc                          # inspect
//	tracegen -bench 557.xz -total 1e9 -json -o xz.json     # JSON form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"suit/internal/report"
	"suit/internal/trace"
	"suit/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "", "workload model to generate from")
		specFile  = flag.String("spec", "", "JSON workload spec file instead of a built-in model")
		totalStr  = flag.String("total", "1e9", "total instructions (accepts scientific notation)")
		seed      = flag.Uint64("seed", 1, "generation seed")
		out       = flag.String("o", "", "output file (default stdout summary only)")
		useJSON   = flag.Bool("json", false, "write JSON instead of the binary format")
		statsFile = flag.String("stats", "", "read a trace file and print statistics")
	)
	flag.Parse()

	if *statsFile != "" {
		if err := printStats(*statsFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *benchName == "" && *specFile == "" {
		fmt.Fprintln(os.Stderr, "need -bench or -spec (or -stats <file>)")
		os.Exit(2)
	}
	var b workload.Benchmark
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &b); err != nil {
			fmt.Fprintf(os.Stderr, "parsing %s: %v\n", *specFile, err)
			os.Exit(1)
		}
	} else {
		var ok bool
		b, ok = workload.ByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *benchName)
			os.Exit(2)
		}
	}
	total, err := workload.ParseInstructions(*totalStr, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -total: %v\n", err)
		os.Exit(2)
	}
	tr, err := b.GenerateTrace(total, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	summarize(tr)
	if *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if *useJSON {
		enc := json.NewEncoder(f)
		err = enc.Encode(tr)
	} else {
		err = trace.WriteBinary(f, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func printStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	summarize(tr)
	return nil
}

func summarize(tr *trace.Trace) {
	s := trace.Summarize(tr)
	fmt.Printf("trace %q: %d instructions, IPC %.2f\n", s.Name, s.Total, tr.IPC)
	fmt.Printf("interesting events: %d (density %.2e)\n", s.Events, s.Density)
	fmt.Printf("gaps: mean %.0f, median %d, max %d instructions\n", s.MeanGap, s.MedianGap, s.MaxGap)

	t := report.NewTable("events by opcode", "opcode", "count")
	for op, n := range s.ByOpcode {
		t.AddRow(op.String(), fmt.Sprintf("%d", n))
	}
	_ = t.Render(os.Stdout)

	labels := make([]string, len(s.GapHistBase))
	for i := range labels {
		labels[i] = fmt.Sprintf("10^%d", i)
	}
	_ = report.Histogram(os.Stdout, "gap-size histogram (log10 buckets)", labels, s.GapHistBase, 48)
}
