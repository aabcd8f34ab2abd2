package facts

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	Note string
}

func (*testFact) AFact() {}

type otherFact struct {
	N int
}

func (*otherFact) AFact() {}

const factSrc = `package p

type T struct{}

func F() {}
func (T) M() {}
func (t *T) P() {}
func init() {}
`

func checkSrc(t *testing.T, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("example.com/p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func lookupFunc(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	t.Fatalf("no function %q in %s", name, pkg.Path())
	return nil
}

func lookupMethod(t *testing.T, pkg *types.Package, typ, name string) *types.Func {
	t.Helper()
	tn := pkg.Scope().Lookup(typ).(*types.TypeName)
	named := tn.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	t.Fatalf("no method %s.%s", typ, name)
	return nil
}

func TestFuncKey(t *testing.T) {
	pkg := checkSrc(t, factSrc)
	cases := []struct {
		fn   *types.Func
		want string
	}{
		{lookupFunc(t, pkg, "F"), "F"},
		{lookupMethod(t, pkg, "T", "M"), "(T).M"},
		{lookupMethod(t, pkg, "T", "P"), "(*T).P"},
	}
	for _, c := range cases {
		key, ok := FuncKey(c.fn)
		if !ok {
			t.Errorf("FuncKey(%s) not addressable", c.fn.Name())
			continue
		}
		if key.Pkg != "example.com/p" || key.Obj != c.want {
			t.Errorf("FuncKey(%s) = %+v, want {example.com/p %s}", c.fn.Name(), key, c.want)
		}
	}
	if _, ok := FuncKey(nil); ok {
		t.Error("FuncKey(nil) should not be addressable")
	}
}

func TestExportImport(t *testing.T) {
	pkg := checkSrc(t, factSrc)
	f := lookupFunc(t, pkg, "F")
	m := lookupMethod(t, pkg, "T", "M")

	s := NewStore()
	if !s.Export(f, &testFact{Note: "hello"}) {
		t.Fatal("Export(F) failed")
	}
	if !s.Export(m, &testFact{Note: "method"}) {
		t.Fatal("Export(M) failed")
	}
	if !s.Export(f, &otherFact{N: 7}) {
		t.Fatal("Export(F, otherFact) failed")
	}

	var got testFact
	if !s.Import(f, &got) || got.Note != "hello" {
		t.Errorf("Import(F) = %+v, %v", got, true)
	}
	if !s.Import(m, &got) || got.Note != "method" {
		t.Errorf("Import(M) = %+v", got)
	}
	var other otherFact
	if !s.Import(f, &other) || other.N != 7 {
		t.Errorf("Import(F, otherFact) = %+v", other)
	}
	// A function with no fact of that type.
	p := lookupMethod(t, pkg, "T", "P")
	if s.Import(p, &got) {
		t.Error("Import(P) should miss")
	}
}
