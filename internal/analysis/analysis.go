// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary, sized for this repo's
// needs. The container this project builds in has no module proxy, so
// the suitlint analyzers (internal/analysis/{determinism,exhaustive,
// unitsafe,panicpath}) run on a framework built entirely from the
// standard library's go/ast, go/types and go/importer packages.
//
// The shapes mirror x/tools deliberately: an Analyzer has a Name, a Doc
// string and a Run function over a Pass; a Pass exposes the FileSet,
// the parsed files, the type-checked package and the types.Info; Run
// reports Diagnostics. If the module ever gains a real
// golang.org/x/tools dependency the analyzers port over mechanically.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"suit/internal/analysis/facts"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer
	// enforces, shown by `suitlint -help`.
	Doc string

	// Run executes the check and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only; _test.go is never analyzed
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the session's cross-package fact store. Analyzers export
	// deductions about this package's functions and import deductions
	// about dependencies' functions at call sites.
	Facts *facts.Store

	diags  *[]Diagnostic
	allows *allowTracker
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact records a cross-package fact for fn, which must be a
// package-level function or method (closures are not addressable; fold
// their state into the enclosing declaration).
func (p *Pass) ExportFact(fn *types.Func, f facts.Fact) {
	p.Facts.Export(fn, f)
}

// ImportFact copies a previously exported fact of ptr's concrete type
// for fn into *ptr, reporting whether one existed. Facts flow in
// dependency order: a callee's facts are available when the caller's
// package is analyzed.
func (p *Pass) ImportFact(fn *types.Func, ptr facts.Fact) bool {
	return p.Facts.Import(fn, ptr)
}

// Allowed reports whether a //lint:allow comment for this analyzer
// covers pos, and marks that suppression as load-bearing for stale
// detection. Analyzers call it while computing facts: a site whose
// finding is explained away must not export its taint/allocation to
// callers, and the comment that does the explaining is "used" even
// when the site never surfaces as a diagnostic.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allows == nil {
		return false
	}
	return p.allows.match(p.Analyzer.Name, p.Fset.Position(pos))
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one loaded, type-checked package ready for analysis.
// Drivers (the go-list loader, analysistest) construct it and hand it
// to a Session.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Meta-analyzer names used for diagnostics the framework itself emits.
// Neither can be suppressed with //lint:allow (their names are not
// accepted by CollectAllows' known set).
const (
	// LintAllowName attributes malformed-suppression diagnostics.
	LintAllowName = "lintallow"
	// StaleAllowName attributes dead-suppression diagnostics: a
	// well-formed //lint:allow that suppressed nothing and blocked no
	// fact export during the whole package run.
	StaleAllowName = "staleallow"
)

// A Session drives the analyzers over a sequence of packages sharing
// one fact store. Packages must be presented in dependency order
// (dependencies first) for cross-package facts to flow; the go-list
// loader guarantees that.
type Session struct {
	// Facts carries cross-package analysis state, from an empty store
	// created by NewSession.
	Facts *facts.Store

	// ReportStale, when set, reports //lint:allow comments that neither
	// suppressed a diagnostic nor blocked a fact export, as
	// StaleAllowName diagnostics. Enable only when running the full
	// analyzer set: under -only, an allow for an analyzer that did not
	// run is silent, not stale (allows naming analyzers outside the
	// session are never reported either way).
	ReportStale bool

	analyzers []*Analyzer
	known     map[string]bool
}

// NewSession returns a session running the given analyzers with an
// empty fact store.
func NewSession(analyzers []*Analyzer) *Session {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return &Session{
		Facts:     facts.NewStore(),
		analyzers: analyzers,
		known:     known,
	}
}

// Run executes the given analyzers over a single package with a fresh,
// private fact store — the compatibility path for fixture tests and
// one-package drivers. Multi-package drivers use a Session so facts
// cross package boundaries.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewSession(analyzers).RunPackage(pkg)
}

// RunPackage executes the session's analyzers over pkg and returns the
// surviving diagnostics, sorted by position. It is the single code path
// shared by every driver:
//
//  1. _test.go files are excluded from analysis (tests may use
//     wall-clock time, ad-hoc randomness and raw literals freely);
//  2. //lint:allow comments are collected once per package; malformed
//     ones (missing reason, unknown analyzer) become diagnostics;
//  3. each analyzer runs over the remaining files, reading and writing
//     session facts;
//  4. diagnostics matched by a well-formed suppression are dropped;
//  5. with ReportStale, suppressions that did no work become
//     StaleAllowName diagnostics.
func (s *Session) RunPackage(pkg *Package) ([]Diagnostic, error) {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}

	allows, diags := CollectAllows(pkg.Fset, files, s.known)
	tracker := newAllowTracker(allows)

	for _, a := range s.analyzers {
		var out []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Facts:     s.Facts,
			diags:     &out,
			allows:    tracker,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, tracker.suppress(pkg.Fset, out)...)
	}

	if s.ReportStale {
		for i, a := range tracker.allows {
			if tracker.used[i] || !s.known[a.Analyzer] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      a.Pos,
				Analyzer: StaleAllowName,
				Message: "lint:allow " + a.Analyzer +
					" suppresses nothing on the current tree; delete the stale comment",
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// PkgPathMatches reports whether a package import path ends in one of
// the given suffixes (e.g. "internal/cpu" matches "suit/internal/cpu").
func PkgPathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
