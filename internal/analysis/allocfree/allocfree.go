// Package allocfree statically enforces the repo's zero-alloc hot-path
// contract. PR 5 and PR 7 took the sweep engine's steady state to zero
// allocations per simulated instruction; this analyzer keeps it there
// by construction instead of by benchmark vigilance.
//
// Roots are functions annotated with a //suit:hotpath pragma in their
// doc comment. Hotness propagates transitively over the statically
// resolved call graph (direct calls and bound method values); dynamic
// dispatch — interface calls and function-typed values — is treated
// conservatively and does NOT spread hotness, so a Strategy
// implementation is only checked if annotated in its own right.
//
// Inside a hot function every allocation site is a finding:
//
//   - make, new, and append (append may grow the backing array);
//   - map inserts;
//   - slice and map composite literals, and &T{...} whose address
//     escapes the statement;
//   - function literals that capture variables (non-capturing literals
//     compile to static closures and are exempt);
//   - implicit interface conversions at call arguments, assignments and
//     returns, EXCEPT pointer-shaped values (pointers, channels, maps,
//     funcs, unsafe.Pointer, and single-pointer-field structs box
//     without allocating);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - calls into the fmt package and errors.New, which allocate by
//     contract;
//   - go statements.
//
// Whether a function "may allocate" is also exported as a cross-package
// fact, so a hot function in internal/cpu calling a helper in
// internal/power is charged at the call site when the helper's own
// package proved it allocates. Standard-library callees carry no facts
// and are assumed allocation-free apart from the explicit denylist.
//
// A finding is silenced the usual way — //lint:allow allocfree <reason>
// — and a suppressed site neither reports nor contributes to the
// function's exported fact, so an explained allocation (a test-only
// log, a once-per-run ring buffer) does not smear every caller.
package allocfree

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

// HotAnnotation marks a hot-path root when it appears as a //suit:hotpath
// pragma line in a function's doc comment.
const HotAnnotation = "suit:hotpath"

// Allocates is the cross-package fact: the function may allocate on
// some path, and Site is a representative site ("run.go:103: append may
// grow the backing array") for the eventual diagnostic.
type Allocates struct {
	Site string
}

// AFact marks Allocates as a fact type.
func (*Allocates) AFact() {}

// Analyzer is the allocfree pass.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "reports allocation sites reachable from //suit:hotpath roots; " +
		"hotness propagates over static calls and method values, never " +
		"through interface dispatch",
	Run: run,
}

// site is one potential allocation in a function body.
type site struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.TypesInfo, pass.Files)

	// Pass 1: local allocation sites per function, suppressions applied.
	// A site silenced by //lint:allow allocfree is invisible from here
	// on: it is neither reported nor folded into the function's fact.
	sites := make(map[*types.Func][]site, len(g.Nodes))
	for _, n := range g.Nodes {
		sites[n.Func] = scanAllocs(pass, n.Decl)
	}

	// Pass 2: intra-package fixpoint over static call edges. A function
	// allocates if it has a surviving local site or an unallowed static
	// call to an allocating callee — local (summary) or cross-package
	// (imported fact). Interface and function-value edges never
	// contribute; that is the conservative contract.
	summary := make(map[*types.Func]site, len(g.Nodes))
	for _, n := range g.Nodes {
		if s := sites[n.Func]; len(s) > 0 {
			summary[n.Func] = s[0]
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if _, done := summary[n.Func]; done {
				continue
			}
			for _, e := range n.Out {
				cs, ok := calleeAllocates(pass, g, summary, e)
				if !ok || pass.Allowed(e.Pos) {
					continue
				}
				summary[n.Func] = site{
					pos: e.Pos,
					msg: fmt.Sprintf("calls %s which may allocate (%s)", calleeName(e.Callee), cs),
				}
				changed = true
				break
			}
		}
	}

	// Export facts for every allocating package-level function so
	// dependent packages can charge calls into this one.
	for _, n := range g.Nodes {
		if s, ok := summary[n.Func]; ok {
			pass.ExportFact(n.Func, &Allocates{Site: posString(pass.Fset, s.pos) + ": " + s.msg})
		}
	}

	// Pass 3: hotness. Roots are //suit:hotpath-annotated declarations;
	// reachability follows static and method-value edges only.
	var roots []*types.Func
	for _, n := range g.Nodes {
		if hasHotAnnotation(n.Decl.Doc) {
			roots = append(roots, n.Func)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	hot := g.Reachable(roots, nil)

	// Pass 4: report. Local sites of hot functions surface directly; a
	// hot function's call to an allocating callee outside the graph
	// (cross-package, or a bodiless declaration) surfaces at the call
	// site. Local callees of hot functions are themselves hot, so their
	// sites are reported once, where they occur.
	for _, n := range g.Nodes {
		if !hot[n.Func] {
			continue
		}
		for _, s := range sites[n.Func] {
			pass.Reportf(s.pos, "hot path: %s", s.msg)
		}
		for _, e := range n.Out {
			if e.Callee == nil || g.Node(e.Callee) != nil {
				continue
			}
			if e.Kind != callgraph.Static && e.Kind != callgraph.MethodValue {
				continue
			}
			var fact Allocates
			if pass.ImportFact(e.Callee, &fact) {
				pass.Reportf(e.Pos, "hot path: calls %s which may allocate (%s)",
					calleeName(e.Callee), fact.Site)
			}
		}
	}
	return nil
}

// calleeAllocates resolves whether an edge's target may allocate, and
// with what representative site description.
func calleeAllocates(pass *analysis.Pass, g *callgraph.Graph, summary map[*types.Func]site, e callgraph.Edge) (string, bool) {
	if e.Callee == nil || (e.Kind != callgraph.Static && e.Kind != callgraph.MethodValue) {
		return "", false
	}
	if g.Node(e.Callee) != nil {
		s, ok := summary[e.Callee]
		if !ok {
			return "", false
		}
		return posString(pass.Fset, s.pos) + ": " + s.msg, true
	}
	var fact Allocates
	if pass.ImportFact(e.Callee, &fact) {
		return fact.Site, true
	}
	return "", false
}

// calleeName renders a callee for diagnostics: pkg.F or pkg.(T).M.
func calleeName(fn *types.Func) string {
	if fn == nil {
		return "<dynamic>"
	}
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

// posString renders "file.go:line" with the directory stripped, stable
// across checkouts.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// hasHotAnnotation reports whether a doc comment contains the
// //suit:hotpath pragma on a line of its own.
func hasHotAnnotation(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == HotAnnotation {
			return true
		}
	}
	return false
}

// scanAllocs walks one declaration's body and returns its unsuppressed
// allocation sites in source order. Function-literal bodies are charged
// to the enclosing declaration, matching the call graph's attribution.
func scanAllocs(pass *analysis.Pass, decl *ast.FuncDecl) []site {
	info := pass.TypesInfo
	var out []site
	report := func(pos token.Pos, format string, args ...any) {
		if pass.Allowed(pos) {
			return
		}
		out = append(out, site{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// Result types of the enclosing declaration, for return boxing.
	var results *types.Tuple
	if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			scanCall(pass, x, report)
		case *ast.GoStmt:
			report(x.Go, "go statement allocates a new goroutine")
		case *ast.FuncLit:
			if capturesVariables(info, x) {
				report(x.Pos(), "func literal captures variables and allocates a closure")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates")
			case *types.Map:
				report(x.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal may escape and allocate")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				report(x.OpPos, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			scanAssign(info, x, report)
		case *ast.ValueSpec:
			scanValueSpec(info, x, report)
		case *ast.ReturnStmt:
			scanReturn(info, x, results, report)
		}
		return true
	})
	return out
}

// scanCall classifies one call expression: builtins, conversions, the
// fmt/errors denylist, and interface boxing at arguments.
func scanCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo

	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		scanConversion(info, call, tv.Type, report)
		return
	}

	// Builtins.
	if id, ok := unwrap(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Lparen, "make allocates")
			case "new":
				report(call.Lparen, "new allocates")
			case "append":
				report(call.Lparen, "append may grow the backing array")
			}
			return
		}
	}

	// Denylist: fmt.* and errors.New allocate by contract.
	if fn := staticCallee(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			report(call.Lparen, "fmt.%s allocates", fn.Name())
			return
		case "errors":
			if fn.Name() == "New" {
				report(call.Lparen, "errors.New allocates")
				return
			}
		}
	}

	// Interface boxing at call arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				param = sig.Params().At(sig.Params().Len() - 1).Type()
			} else {
				param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param == nil {
			continue
		}
		if boxes(info, param, arg) {
			report(arg.Pos(), "argument boxed into interface %s allocates", param)
		}
	}
}

// scanConversion flags allocating type conversions: string<->[]byte,
// string<->[]rune, and explicit conversion to an interface type.
func scanConversion(info *types.Info, call *ast.CallExpr, target types.Type, report func(token.Pos, string, ...any)) {
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isString(target) && isByteOrRuneSlice(src):
		report(call.Lparen, "[]byte/[]rune to string conversion allocates")
	case isByteOrRuneSlice(target) && isString(src):
		report(call.Lparen, "string to []byte/[]rune conversion allocates")
	case types.IsInterface(target.Underlying()) && boxes(info, target, call.Args[0]):
		report(call.Lparen, "conversion to interface %s allocates", target)
	}
}

// scanAssign flags map inserts, string +=, and interface boxing on
// plain assignments to interface-typed locations.
func scanAssign(info *types.Info, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	for _, lhs := range as.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				report(ix.Lbrack, "map assignment may allocate")
			}
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isString(info.TypeOf(as.Lhs[0])) {
		report(as.TokPos, "string concatenation allocates")
	}
	if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			lt := info.TypeOf(lhs)
			if lt == nil || !types.IsInterface(lt.Underlying()) {
				continue
			}
			if boxes(info, lt, as.Rhs[i]) {
				report(as.Rhs[i].Pos(), "assignment boxes value into interface %s", lt)
			}
		}
	}
}

// scanValueSpec flags interface boxing in `var i I = concrete`.
func scanValueSpec(info *types.Info, vs *ast.ValueSpec, report func(token.Pos, string, ...any)) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	t := info.TypeOf(vs.Type)
	if t == nil || !types.IsInterface(t.Underlying()) {
		return
	}
	for _, v := range vs.Values {
		if boxes(info, t, v) {
			report(v.Pos(), "declaration boxes value into interface %s", t)
		}
	}
}

// scanReturn flags interface boxing at return statements.
func scanReturn(info *types.Info, ret *ast.ReturnStmt, results *types.Tuple, report func(token.Pos, string, ...any)) {
	if results == nil || len(ret.Results) != results.Len() {
		return // bare return, or single multi-value call: nothing boxed here
	}
	for i, r := range ret.Results {
		rt := results.At(i).Type()
		if !types.IsInterface(rt.Underlying()) {
			continue
		}
		if boxes(info, rt, r) {
			report(r.Pos(), "return boxes value into interface %s", rt)
		}
	}
}

// boxes reports whether assigning expr to a location of interface type
// target performs an allocating interface conversion: the expression's
// type is concrete, not pointer-shaped, and not untyped nil.
func boxes(info *types.Info, target types.Type, expr ast.Expr) bool {
	if !types.IsInterface(target.Underlying()) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	st := tv.Type
	if types.IsInterface(st.Underlying()) {
		return false // interface-to-interface copies words, no allocation
	}
	if _, isTP := st.(*types.TypeParam); isTP {
		return false // instantiation-dependent; charged at the instantiation
	}
	return !pointerShaped(st)
}

// pointerShaped reports whether a value of type t boxes into an
// interface without allocating: its runtime representation is a single
// pointer word (pointers, channels, maps, funcs, unsafe.Pointer, and
// structs wrapping exactly one such field).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	}
	return false
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune)
}

// staticCallee resolves the called function when it is a plain function
// or method reference; nil for dynamic calls and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unwrap(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// unwrap strips parentheses and generic instantiation indices.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// capturesVariables reports whether a function literal references a
// variable declared outside itself but inside some function (captured
// state forces a heap-allocated closure; package-level variables do
// not).
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: static reference, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}
