// Command tracegen generates, inspects and converts SUIT instruction
// traces (§5.1's QEMU-plugin substitute).
//
// Examples:
//
//	tracegen -bench nginx -total 2e8 -o nginx.suittrc     # generate
//	tracegen -stats nginx.suittrc                          # inspect
//	tracegen -bench 557.xz -total 1e9 -json -o xz.json     # JSON form
//
// -stats reads either form. Exit codes: 0 success, 1 a file or
// generation error, 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/trace"
	"suit/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status lifted out, so
// tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "workload model to generate from")
		specFile  = fs.String("spec", "", "JSON workload spec file instead of a built-in model")
		totalStr  = fs.String("total", "1e9", "total instructions (accepts scientific notation)")
		seed      = fs.Uint64("seed", 1, "generation seed")
		out       = fs.String("o", "", "output file (default stdout summary only)")
		useJSON   = fs.Bool("json", false, "write JSON instead of the binary format")
		statsFile = fs.String("stats", "", "read a trace file (binary or JSON) and print statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *statsFile != "" {
		if err := printStats(stdout, *statsFile); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *benchName == "" && *specFile == "" {
		fmt.Fprintln(stderr, "need -bench or -spec (or -stats <file>)")
		return 2
	}
	var b workload.Benchmark
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := json.Unmarshal(data, &b); err != nil {
			fmt.Fprintf(stderr, "parsing %s: %v\n", *specFile, err)
			return 1
		}
	} else {
		var ok bool
		b, ok = workload.ByName(*benchName)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *benchName)
			return 2
		}
	}
	total, err := workload.ParseInstructions(*totalStr, 1)
	if err != nil {
		fmt.Fprintf(stderr, "bad -total: %v\n", err)
		return 2
	}
	tr, err := b.GenerateTrace(total, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	summarize(stdout, tr)
	if *out == "" {
		return 0
	}
	if err := writeTrace(*out, tr, *useJSON); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

func writeTrace(path string, tr *trace.Trace, useJSON bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if useJSON {
		err = json.NewEncoder(f).Encode(tr)
	} else {
		err = trace.WriteBinary(f, tr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printStats summarizes the trace at path, in the binary format or, when
// the file does not start with the binary magic, in JSON.
func printStats(stdout io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := trace.ReadBinary(bytes.NewReader(data))
	if errors.Is(err, trace.ErrBadMagic) {
		tr = new(trace.Trace)
		err = json.Unmarshal(data, tr)
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	summarize(stdout, tr)
	return nil
}

func summarize(w io.Writer, tr *trace.Trace) {
	s := trace.Summarize(tr)
	fmt.Fprintf(w, "trace %q: %d instructions, IPC %.2f\n", s.Name, s.Total, tr.IPC)
	fmt.Fprintf(w, "interesting events: %d (density %.2e)\n", s.Events, s.Density)
	fmt.Fprintf(w, "gaps: mean %.0f, median %d, max %d instructions\n", s.MeanGap, s.MedianGap, s.MaxGap)

	t := report.NewTable("events by opcode", "opcode", "count")
	for i := 0; i < isa.NumOpcodes; i++ {
		op := isa.Opcode(i)
		if n, ok := s.ByOpcode[op]; ok {
			t.AddRow(op.String(), fmt.Sprintf("%d", n))
		}
	}
	_ = t.Render(w)

	labels := make([]string, len(s.GapHistBase))
	for i := range labels {
		labels[i] = fmt.Sprintf("10^%d", i)
	}
	_ = report.Histogram(w, "gap-size histogram (log10 buckets)", labels, s.GapHistBase, 48)
}
