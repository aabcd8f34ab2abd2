// Package unitchecker implements the cmd/go vet tool protocol, so the
// suitlint binary can run as `go vet -vettool=$(which suitlint) ./...`.
// It is a standard-library re-implementation of the x/tools unitchecker
// essentials: the go command invokes the tool once per package with a
// JSON config file describing the sources and the export data of every
// dependency; the tool type-checks, analyzes, prints findings to
// stderr and signals them with exit code 2.
//
// Cross-package facts ride the same protocol: the go command hands the
// tool each dependency's .vetx file (PackageVetx) and expects this
// package's facts back (VetxOutput). Every .vetx carries the package's
// WHOLE merged store — its own exports plus everything revived from its
// dependencies — so facts reach transitive dependents regardless of
// which subset of .vetx files cmd/go lists for them. VetxOnly runs
// (dependency passes whose findings nobody wants) still execute the
// analyzers, because the facts are the point; only the reporting is
// skipped.
package unitchecker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"

	"suit/internal/analysis"
)

// Config mirrors the JSON schema cmd/go writes for vet tools. Field
// names must match exactly; unused fields are listed for completeness.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Run processes one vet config file and exits: 0 on success, 1 on
// protocol or type-check errors, 2 when diagnostics were reported.
func Run(cfgPath string, analyzers []*analysis.Analyzer) {
	code, err := run(cfgPath, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suitlint:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(cfgPath string, analyzers []*analysis.Analyzer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	// The go command expects the facts file to exist on every exit path,
	// including typecheck-failure bailouts; it is rewritten with the real
	// store once analysis succeeds.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	// Revive dependency facts. Iterate sorted so a (hypothetical) decode
	// conflict resolves the same way on every run. Standard-library
	// facts are skipped: cmd/go runs the tool over std dependencies in
	// VetxOnly mode, but the in-process loader (analysis/load) never
	// analyzes std, and both ways of running suitlint must agree.
	session := analysis.NewSession(analyzers)
	session.ReportStale = true
	depPaths := make([]string, 0, len(cfg.PackageVetx))
	for p := range cfg.PackageVetx {
		if cfg.Standard[p] {
			continue
		}
		depPaths = append(depPaths, p)
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		vetx, err := os.ReadFile(cfg.PackageVetx[p])
		if err != nil {
			return 0, fmt.Errorf("reading facts for %s: %v", p, err)
		}
		if err := session.Facts.Decode(vetx); err != nil {
			return 0, fmt.Errorf("facts for %s: %v", p, err)
		}
	}

	diags, err := session.RunPackage(&analysis.Package{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
	})
	if err != nil {
		return 0, err
	}

	if cfg.VetxOutput != "" {
		encoded, err := session.Facts.Encode()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(cfg.VetxOutput, encoded, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2, nil
	}
	return 0, nil
}
