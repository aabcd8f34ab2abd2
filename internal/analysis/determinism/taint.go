// Taint propagation: the cross-function half of the determinism
// contract. The per-file checks in determinism.go only see DIRECT
// wall-clock and global-rand uses inside result-affecting packages; a
// helper in a utility package that calls time.Now escapes them
// entirely. Here every analyzed package computes, per function, whether
// its result can depend on the wall clock or the process-global rand
// source — directly or through any chain of statically resolved calls —
// and exports that as a Tainted fact. Result-affecting packages then
// report call sites whose (cross-package) callee carries the fact.
//
// Propagation is conservative in the same way as allocfree: static
// calls and bound method values carry taint; interface dispatch and
// function-typed values do not (a Strategy implementation is checked in
// its own package, not through the dispatch site). A //lint:allow
// determinism on a site or call line both silences the finding and
// stops the taint, so an explained watchdog timer does not smear every
// transitive caller.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"suit/internal/analysis"
	"suit/internal/analysis/callgraph"
	"suit/internal/analysis/facts"
)

// Tainted is the cross-package fact: the function's behavior can depend
// on the wall clock or the process-global rand source. Source names the
// ROOT cause ("time.Now at clock.go:14") and is propagated unchanged
// through transitive carriers, so the eventual diagnostic points at the
// original sin, not the nearest link.
type Tainted struct {
	Source string
}

// AFact marks Tainted as a fact type.
func (*Tainted) AFact() {}

// taintSite is one direct nondeterminism source in a function body.
type taintSite struct {
	pos    token.Pos
	source string
}

// propagateTaint computes and exports per-function taint for this
// package and, in result-affecting packages, reports calls to tainted
// cross-package callees.
func propagateTaint(pass *analysis.Pass, report bool) {
	g := callgraph.Build(pass.TypesInfo, pass.Files)

	// Direct sources, suppression applied: an allowed site neither
	// taints its function nor (in result packages) survives as a
	// diagnostic, and consulting the allow marks it load-bearing.
	tainted := make(map[*types.Func]string, len(g.Nodes))
	for _, n := range g.Nodes {
		if sites := directTaints(pass, n.Decl); len(sites) > 0 {
			tainted[n.Func] = sites[0].source
		}
	}

	// Fixpoint over static and method-value edges; allowed call sites
	// break the chain.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if _, done := tainted[n.Func]; done {
				continue
			}
			for _, e := range n.Out {
				src, ok := taintSource(pass, g, tainted, e)
				if !ok || pass.Allowed(e.Pos) {
					continue
				}
				tainted[n.Func] = src
				changed = true
				break
			}
		}
	}

	for _, n := range g.Nodes {
		if src, ok := tainted[n.Func]; ok {
			pass.ExportFact(n.Func, &Tainted{Source: src})
		}
	}

	if !report {
		return
	}
	// Call-site findings for cross-package (or bodiless) tainted
	// callees. Local callees are skipped: their direct sites were
	// already reported where they occur by checkClockAndRand.
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Callee == nil || g.Node(e.Callee) != nil {
				continue
			}
			if e.Kind != callgraph.Static && e.Kind != callgraph.MethodValue {
				continue
			}
			var fact Tainted
			if pass.ImportFact(e.Callee, &fact) {
				pass.Reportf(e.Pos,
					"calls %s, which is tainted by %s; results must be a pure function of (spec, seed) — inject the value, or suppress with //lint:allow determinism <reason> if it never reaches results",
					taintCalleeName(e.Callee), fact.Source)
			}
		}
	}
}

// taintSource resolves whether an edge's target is tainted and by what
// root source.
func taintSource(pass *analysis.Pass, g *callgraph.Graph, tainted map[*types.Func]string, e callgraph.Edge) (string, bool) {
	if e.Callee == nil || (e.Kind != callgraph.Static && e.Kind != callgraph.MethodValue) {
		return "", false
	}
	if g.Node(e.Callee) != nil {
		src, ok := tainted[e.Callee]
		return src, ok
	}
	var fact Tainted
	if pass.ImportFact(e.Callee, &fact) {
		return fact.Source, true
	}
	return "", false
}

// directTaints scans one declaration for unsuppressed direct sources:
// wall-clock reads, wall-clock timers, global math/rand draws and
// visibly unseeded rand.New constructions. The classification matches
// checkClockAndRand so a site reported there and the taint it spreads
// here are always the same set.
func directTaints(pass *analysis.Pass, decl *ast.FuncDecl) []taintSite {
	var out []taintSite
	add := func(pos token.Pos, source string) {
		if pass.Allowed(pos) {
			return
		}
		out = append(out, taintSite{pos: pos, source: source})
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := pass.TypesInfo.Uses[x.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
					add(x.Pos(), fmt.Sprintf("time.%s at %s", fn.Name(), taintPos(pass.Fset, x.Pos())))
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(fn.Name(), "New") {
					add(x.Pos(), fmt.Sprintf("global rand.%s at %s", fn.Name(), taintPos(pass.Fset, x.Pos())))
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Name() != "New" {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if !mentionsSeed(x.Args) {
				add(x.Pos(), fmt.Sprintf("unseeded rand.New at %s", taintPos(pass.Fset, x.Pos())))
			}
		}
		return true
	})
	return out
}

// taintCalleeName renders a callee as pkg.F / pkg.(T).M for diagnostics.
func taintCalleeName(fn *types.Func) string {
	key, ok := facts.FuncKey(fn)
	if !ok {
		return fn.Name()
	}
	pkg := key.Pkg
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg + "." + key.Obj
}

// taintPos renders "file.go:line" with the directory stripped.
func taintPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
