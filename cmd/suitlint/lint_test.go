package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"suit/internal/analysis"
	"suit/internal/analysis/load"
)

// TestRepoIsLintClean runs all six analyzers over the whole module
// in-process through one shared session — facts flowing in dependency
// order, stale-allow detection on — and demands a clean tree: every
// remaining finding must be fixed or carry an explained //lint:allow,
// and every //lint:allow must still be doing work.
func TestRepoIsLintClean(t *testing.T) {
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	session := analysis.NewSession(analyzers())
	session.ReportStale = true
	for _, pkg := range pkgs {
		diags, err := session.RunPackage(pkg)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.Pkg.Path(), err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestAllocRegressionIsCaught is the tree-level half of the allocfree
// acceptance criterion: a copy of the real internal/ tree with an
// append seeded under cpu.runStep must produce an allocfree finding at
// exactly that line. The fixture half lives in
// internal/analysis/allocfree/testdata/src/hotregress.
func TestAllocRegressionIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the tree and shells out to go list")
	}
	tmp := t.TempDir()
	copyTree(t, "../../internal", filepath.Join(tmp, "internal"))
	mod, err := os.ReadFile("../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), mod, 0o666); err != nil {
		t.Fatal(err)
	}

	// Seed the regression: a trace append on runStep's first line.
	runGo := filepath.Join(tmp, "internal", "cpu", "run.go")
	src, err := os.ReadFile(runGo)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "func (m *Machine) runStep() error {"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("anchor %q not found in %s", anchor, runGo)
	}
	mutated := strings.Replace(string(src), anchor,
		anchor+"\n\tmutationLeak = append(mutationLeak, m.now)", 1)
	mutated += "\n\nvar mutationLeak []units.Second\n"
	if err := os.WriteFile(runGo, []byte(mutated), 0o666); err != nil {
		t.Fatal(err)
	}

	pkgs, err := load.Packages(tmp, "./internal/cpu")
	if err != nil {
		t.Fatalf("loading mutated tree: %v", err)
	}
	session := analysis.NewSession(analyzers())
	var hits []string
	for _, pkg := range pkgs {
		diags, err := session.RunPackage(pkg)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.Pkg.Path(), err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if d.Analyzer == "allocfree" && strings.HasSuffix(pos.Filename, "run.go") &&
				strings.Contains(d.Message, "append") {
				hits = append(hits, pos.String()+": "+d.Message)
			}
		}
	}
	if len(hits) == 0 {
		t.Fatal("seeded append under runStep was not flagged by allocfree")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVettoolProtocol builds the binary and drives it through the real
// cmd/go vet-tool handshake (-V=full, then per-package .cfg files) over
// the whole module, as CI does. The module spans fact edges — internal/
// cpu's hot path calls into internal/isa and internal/power, whose facts
// reach it through .vetx files — and cmd/go also runs the tool over the
// standard library, so a vet run that disagrees with in-process suitlint
// (clean by TestRepoIsLintClean) fails here.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "suitlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building suitlint: %v\n%s", err, out)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, out)
	}

	// Positive control: a synthetic two-package module where the hot
	// package can ONLY be flagged if the dependency's Allocates fact
	// survived the .vetx round-trip. A silent fact-plumbing regression
	// would make this vet run pass, so demand the failure.
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vx\n\ngo 1.22\n")
	write("dep/dep.go", "package dep\n\nfunc Grow(s []int) []int { return append(s, 1) }\n")
	write("hot/hot.go", "package hot\n\nimport \"vx/dep\"\n\n//suit:hotpath\nfunc Step(s []int) []int {\n\treturn dep.Grow(s)\n}\n")
	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet on the seeded module passed; dependency facts did not cross the .vetx boundary\n%s", out)
	}
	if !strings.Contains(string(out), "calls dep.Grow which may allocate") {
		t.Fatalf("vet failed but not with the fact-derived finding:\n%s", out)
	}
}

// TestInternalExportsHaveProductionCallers fails on an exported
// identifier under internal/ that no non-test file of the module or of
// bench/ references: code that only its tests reach ships for nothing.
// A declaration's references to itself (recursion, a method's receiver)
// do not count, nor do references to a type or its constants from the
// type's own methods and typed constant specs, so an enum read only by
// its own String is flagged; a used constant counts as a use of its
// type. Exempt are the test-support packages, struct fields
// (some are serialized results), a method that a called repo interface
// method or a referenced marker interface dispatches to, and the
// methods standard-library interfaces call implicitly.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	pkgs, err := load.Packages("../../bench", ".", "suit/...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	used := make(map[string]bool)
	var ifaces []*types.Named
	for _, pkg := range pkgs {
		// A reference inside its own object's declaration is no use, and
		// neither is one to a type or its constants from the type's own
		// methods or typed constant specs.
		self := make(map[string][]ast.Node)
		mark := func(obj types.Object, n ast.Node) {
			self[exportKey(obj)] = append(self[exportKey(obj)], n)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					mark(fn, d)
					if n := recvNamed(fn); n != nil {
						mark(n.Obj(), d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							mark(pkg.TypesInfo.Defs[sp.Name], sp)
						case *ast.ValueSpec:
							if n, ok := pkg.TypesInfo.TypeOf(sp.Type).(*types.Named); ok && d.Tok == token.CONST {
								mark(n.Obj(), sp)
							}
						}
					}
				}
			}
		}
	uses:
		for id, obj := range pkg.TypesInfo.Uses {
			k := exportKey(obj)
			if k == "" {
				continue
			}
			owner := k // a constant belongs to its named type
			if n, ok := obj.Type().(*types.Named); ok {
				if _, isConst := obj.(*types.Const); isConst && exportKey(n.Obj()) != "" {
					owner = exportKey(n.Obj())
				}
			}
			for _, n := range append(self[k], self[owner]...) {
				if n.Pos() <= id.Pos() && id.Pos() < n.End() {
					continue uses
				}
			}
			used[k] = true
			used[owner] = true
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if n, ok := obj.Type().(*types.Named); ok && types.IsInterface(n) && obj == n.Obj() {
				ifaces = append(ifaces, n)
			}
		}
	}
	// dispatched reports whether a repo interface that recv satisfies
	// has a method name that non-test code calls, or that is a marker
	// (no arguments, no results) on an interface non-test code names.
	dispatched := func(recv types.Type, name string) bool {
		for _, n := range ifaces {
			it := n.Underlying().(*types.Interface)
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sig := m.Type().(*types.Signature)
				marker := sig.Params().Len() == 0 && sig.Results().Len() == 0 && used[exportKey(n.Obj())]
				if m.Name() == name && (used[exportKey(m)] || marker) && implements(recv, it) {
					return true
				}
			}
		}
		return false
	}
	check := func(pkg *analysis.Package, obj types.Object, name string) {
		if !used[exportKey(obj)] {
			t.Errorf("%s: %s.%s has no caller outside tests", pkg.Fset.Position(obj.Pos()), pkg.Pkg.Name(), name)
		}
	}
	for _, pkg := range pkgs {
		path := pkg.Pkg.Path()
		if !strings.HasPrefix(path, "suit/internal/") ||
			path == "suit/internal/analysis/analysistest" || path == "suit/internal/engine/faultinject" {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(pkg, obj, name)
			}
			n, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			methods := make([]*types.Func, 0, n.NumMethods())
			for i := 0; i < n.NumMethods(); i++ {
				methods = append(methods, n.Method(i))
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					methods = append(methods, it.ExplicitMethod(i))
				}
			}
			for _, m := range methods {
				if m.Exported() && !implicitMethods[m.Name()] && !dispatched(n, m.Name()) {
					check(pkg, m, name+"."+m.Name())
				}
			}
		}
	}
}

// implicitMethods are the method names standard-library interfaces
// call without the caller naming them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "RoundTrip": true,
}

// exportKey names a package-level object or method independently of the
// type-checking pass that produced it: a package is checked from source
// once and imported from export data by each dependent. Other objects
// (locals, fields) have no key.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if n := recvNamed(fn); n != nil {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type method fn is declared on, or nil.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, _ := rt.(*types.Named)
	return n
}

// implements reports whether t (through a pointer, for a concrete type)
// has every method of it with the same signature. It compares
// signatures as strings because t and it may come from different
// type-checking passes.
func implements(t types.Type, it *types.Interface) bool {
	if !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < it.NumMethods(); i++ {
		want := it.Method(i)
		found := false
		for j := 0; j < ms.Len(); j++ {
			got := ms.At(j).Obj()
			if got.Name() == want.Name() && signature(got) == signature(want) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// signature spells fn's parameter and result types, without names.
func signature(fn types.Object) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
