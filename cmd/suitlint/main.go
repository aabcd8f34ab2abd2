// Command suitlint is the SUIT simulator's static-analysis suite. It
// bundles six domain analyzers:
//
//	determinism  no wall clock, global rand, unseeded sources or
//	             order-dependent map iteration in result-affecting
//	             packages (the engine's cross--j replay contract);
//	             wall-clock taint propagates through helpers in ANY
//	             package and is charged at result-affecting call sites
//	exhaustive   switches over enum-like simulator types cover every
//	             constant or panic in an explicit default
//	units        no raw literals into internal/units quantity types,
//	             no bare cross-unit conversions
//	panicpath    panic only for machine invariants; I/O and command
//	             paths return errors
//	hotpath      math.Pow in internal/cpu's per-event code must carry
//	             an explained allow (energy is charged once per epoch,
//	             so Pow belongs where an epoch closes, not per arrival)
//	allocfree    no allocation sites reachable from //suit:hotpath
//	             roots; hotness propagates over static calls and method
//	             values, and "may allocate" facts cross package
//	             boundaries
//
// Findings are suppressed line-by-line with an explained comment:
//
//	//lint:allow <analyzer> <reason>
//
// A trailing allow covers its own line; a standalone allow covers the
// line below. When the full analyzer set runs, an allow that suppresses
// nothing is itself reported (staleallow), so dead suppressions cannot
// accumulate.
//
// Usage:
//
//	suitlint [-only=a,b] [-json] [packages]
//
// It loads the packages (default ./...) and their dependencies with
// go list and runs every analyzer over them in one session, in
// dependency order, so facts flow from callee packages to callers.
//
// -json emits machine-readable findings on stdout, stably sorted by
// (file, line, col, analyzer, message), for CI annotation.
//
// Exit status is 0 when the tree is clean, 2 when diagnostics were
// reported, 1 on usage or load errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"suit/internal/analysis"
	"suit/internal/analysis/allocfree"
	"suit/internal/analysis/determinism"
	"suit/internal/analysis/exhaustive"
	"suit/internal/analysis/hotpath"
	"suit/internal/analysis/load"
	"suit/internal/analysis/panicpath"
	"suit/internal/analysis/unitsafe"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		exhaustive.Analyzer,
		unitsafe.Analyzer,
		panicpath.Analyzer,
		hotpath.Analyzer,
		allocfree.Analyzer,
	}
}

func main() {
	os.Exit(run("", os.Args[1:], os.Stdout, os.Stderr))
}

// A finding is the JSON wire form of one diagnostic. Suppressible is
// false for the framework's own meta-diagnostics (malformed or stale
// //lint:allow comments), which cannot themselves be allowed away.
type finding struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	Suppressible bool   `json:"suppressible"`
}

// run is main with the module directory (empty: the working
// directory), arguments, streams and exit status lifted out, so tests
// can drive suitlint in-process.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	// ContinueOnError so a flag typo exits 1, the usage status, and not
	// with the flag package's 2, which suitlint reserves for findings.
	fs := flag.NewFlagSet("suitlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout (stable sort: file, line, col, analyzer, message)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: suitlint [-only=a,b] [-json] [packages]")
		for _, a := range analyzers() {
			fmt.Fprintf(stderr, "\n%s:\n  %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	selected := analyzers()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range selected {
			byName[a.Name] = a
		}
		selected = selected[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "suitlint: unknown analyzer %q\n", name)
				return 1
			}
			selected = append(selected, a)
		}
	}

	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "suitlint:", err)
		return 1
	}

	// One session across every package: load.Packages returns them in
	// dependency order, so facts flow bottom-up. Stale-allow detection
	// is only sound when every analyzer runs — under -only, an unused
	// allow may belong to an analyzer that simply did not execute.
	session := analysis.NewSession(selected)
	session.ReportStale = *only == ""

	// Findings are reported relative to the module directory when they
	// fall under it, so CI annotations map onto repository paths.
	root, _ := filepath.Abs(dir)

	var all []finding
	for _, pkg := range pkgs {
		diags, err := session.RunPackage(pkg)
		if err != nil {
			fmt.Fprintln(stderr, "suitlint:", err)
			return 1
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			all = append(all, finding{
				File:     relPath(root, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Suppressible: d.Analyzer != analysis.LintAllowName &&
					d.Analyzer != analysis.StaleAllowName,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "suitlint:", err)
			return 1
		}
	} else {
		for _, f := range all {
			fmt.Fprintf(stderr, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(all) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "suitlint: %d finding(s)\n", len(all))
		}
		return 2
	}
	return 0
}

// relPath returns name relative to root when it lies underneath it,
// and name unchanged otherwise (including when root is empty).
func relPath(root, name string) string {
	if root == "" {
		return name
	}
	rel, err := filepath.Rel(root, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
