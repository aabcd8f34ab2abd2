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
// It runs in two modes:
//
//	suitlint [-only=a,b] [-json] [packages]   standalone
//	go vet -vettool=suitlint pkgs             as a vet tool (cmd/go protocol)
//
// -json emits machine-readable findings on stdout, stably sorted by
// (file, line, col, analyzer, message), for CI annotation.
//
// Exit status is 0 when the tree is clean, 2 when diagnostics were
// reported, 1 on usage or load errors.
package main

import (
	"crypto/sha256"
	"encoding/json"
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
	"suit/internal/analysis/unitchecker"
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
	args := os.Args[1:]

	// Vet tool protocol, part 1: `suitlint -V=full` prints a version
	// line whose content hash the go command uses as a cache key.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V=") {
		printVersion()
		return
	}
	// Vet tool protocol, part 2: `suitlint -flags` describes the flags
	// the go command may forward. The analyzers take none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Vet tool protocol, part 3: one JSON config file per package.
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		unitchecker.Run(args[len(args)-1], analyzers())
		return
	}

	os.Exit(standalone(args))
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

func standalone(args []string) int {
	fs := flag.NewFlagSet("suitlint", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout (stable sort: file, line, col, analyzer, message)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: suitlint [-only=a,b] [-json] [packages]")
		for _, a := range analyzers() {
			fmt.Fprintf(os.Stderr, "\n%s:\n  %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	run := analyzers()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range run {
			byName[a.Name] = a
		}
		run = run[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "suitlint: unknown analyzer %q\n", name)
				return 1
			}
			run = append(run, a)
		}
	}

	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suitlint:", err)
		return 1
	}

	// One session across every package: load.Packages returns them in
	// dependency order, so facts flow bottom-up. Stale-allow detection
	// is only sound when every analyzer runs — under -only, an unused
	// allow may belong to an analyzer that simply did not execute.
	session := analysis.NewSession(run)
	session.ReportStale = *only == ""

	// Findings are reported relative to the working directory when they
	// fall under it, so CI annotations map onto repository paths.
	wd, _ := os.Getwd()

	var all []finding
	for _, pkg := range pkgs {
		diags, err := session.RunPackage(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "suitlint:", err)
			return 1
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			all = append(all, finding{
				File:     relPath(wd, pos.Filename),
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "suitlint:", err)
			return 1
		}
	} else {
		for _, f := range all {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(all) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "suitlint: %d finding(s)\n", len(all))
		}
		return 2
	}
	return 0
}

// relPath returns name relative to wd when it lies underneath it, and
// name unchanged otherwise (including when wd is empty).
func relPath(wd, name string) string {
	if wd == "" {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}

// printVersion emits "<name> version <id>" where id hashes the binary,
// so the go command's vet cache invalidates when suitlint changes.
func printVersion() {
	name := "suitlint"
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil)[:16])
}
