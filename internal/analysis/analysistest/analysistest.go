// Package analysistest runs an analyzer over GOPATH-style fixture
// trees and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest:
//
//	testdata/src/<importpath>/*.go
//
// A fixture line expecting a diagnostic carries a marker comment with
// one regular expression per expected diagnostic on that line:
//
//	_ = time.Now() // want `time\.Now reads the wall clock`
//
// Fixture-local imports resolve under testdata/src (so fixtures can
// model real package paths like suit/internal/engine); everything else
// (fmt, time, math/rand) falls back to the standard library's source
// importer, which type-checks GOROOT sources and therefore works
// without compiled stdlib export data.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"suit/internal/analysis"
)

// Run analyzes each fixture package and reports mismatches between
// produced diagnostics and // want expectations via t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		pkg, err := loadFixture(testdata, path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		check(t, pkg, diags)
	}
}

// RunDeps analyzes the fixture packages in the given order through ONE
// shared analysis.Session, so facts exported while analyzing an earlier
// package are importable when a later one calls into it — the same
// cross-package path suitlint takes over go-list packages.
// List dependencies before dependents. Each fixture is type-checked in
// its own session (separate FileSet, separate types.Package identities),
// which is exactly what makes this a real test of the string-keyed fact
// store: object pointers do not survive, keys must.
func RunDeps(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	s := analysis.NewSession([]*analysis.Analyzer{a})
	for _, path := range paths {
		pkg, err := loadFixture(testdata, path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := s.RunPackage(pkg)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		check(t, pkg, diags)
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// wantPayload extracts the quoted or backquoted regexps after "// want".
var wantPayload = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, pkg *analysis.Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				payload := c.Text[idx+len("// want "):]
				tokens := wantPayload.FindAllString(payload, -1)
				if len(tokens) == 0 {
					t.Errorf("%s: malformed want comment: %s", pos, c.Text)
					continue
				}
				for _, tok := range tokens {
					var s string
					if tok[0] == '`' {
						s = tok[1 : len(tok)-1]
					} else {
						var err error
						s, err = strconv.Unquote(tok)
						if err != nil {
							t.Errorf("%s: bad want string %s: %v", pos, tok, err)
							continue
						}
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, s, err)
						continue
					}
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, re: re, raw: s})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// fixtureImporter resolves imports under testdata/src first, then
// falls back to the stdlib source importer.
type fixtureImporter struct {
	root     string
	fset     *token.FileSet
	pkgs     map[string]*types.Package
	loading  map[string]bool
	fallback types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		p, err := fi.fallback.Import(path)
		if err != nil {
			return nil, err
		}
		fi.pkgs[path] = p
		return p, nil
	}
	if fi.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	fi.loading[path] = true
	defer delete(fi.loading, path)
	files, err := fi.parseDir(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: fi}
	pkg, err := conf.Check(path, fi.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	fi.pkgs[path] = pkg
	return pkg, nil
}

func (fi *fixtureImporter) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

func loadFixture(testdata, path string) (*analysis.Package, error) {
	fset := token.NewFileSet()
	fi := &fixtureImporter{
		root:     testdata,
		fset:     fset,
		pkgs:     make(map[string]*types.Package),
		loading:  make(map[string]bool),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
	files, err := fi.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: fi}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}
