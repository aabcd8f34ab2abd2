package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const allowSrc = `package p

func a() {
	_ = 1 //lint:allow determinism trailing form with a reason
}

func b() {
	//lint:allow units standalone form above the statement
	_ = 2
}

func c() {
	_ = 3 //lint:allow determinism
}

func d() {
	_ = 4 //lint:allow nosuchpass it is not a real analyzer
}

func e() {
	_ = 5 //lint:allow
}
`

func parseAllowSrc(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestCollectAllows(t *testing.T) {
	fset, files := parseAllowSrc(t)
	known := map[string]bool{"determinism": true, "units": true}
	allows, bad := CollectAllows(fset, files, known)

	if len(allows) != 2 {
		t.Fatalf("well-formed allows = %d, want 2: %+v", len(allows), allows)
	}
	if allows[0].Analyzer != "determinism" || allows[1].Analyzer != "units" {
		t.Errorf("allow analyzers = %s, %s; want determinism, units",
			allows[0].Analyzer, allows[1].Analyzer)
	}

	if len(bad) != 3 {
		t.Fatalf("malformed allows = %d, want 3: %+v", len(bad), bad)
	}
	wantBad := []string{"missing a reason", "unknown analyzer nosuchpass", "needs an analyzer name"}
	for i, w := range wantBad {
		if bad[i].Analyzer != "lintallow" {
			t.Errorf("bad[%d].Analyzer = %s, want lintallow", i, bad[i].Analyzer)
		}
		if !strings.Contains(bad[i].Message, w) {
			t.Errorf("bad[%d].Message = %q, want substring %q", i, bad[i].Message, w)
		}
	}
}

func TestSuppress(t *testing.T) {
	fset, files := parseAllowSrc(t)
	known := map[string]bool{"determinism": true, "units": true}
	allows, _ := CollectAllows(fset, files, known)

	lineOf := func(a Allow) int { return a.Line }
	trailing, standalone := allows[0], allows[1]

	posAt := func(line int) token.Pos {
		tf := fset.File(files[0].Pos())
		return tf.LineStart(line)
	}

	diags := []Diagnostic{
		// Same line as the trailing suppression: suppressed.
		{Pos: posAt(lineOf(trailing)), Analyzer: "determinism", Message: "x"},
		// Line below the standalone suppression: suppressed.
		{Pos: posAt(lineOf(standalone) + 1), Analyzer: "units", Message: "y"},
		// Wrong analyzer on a suppressed line: kept.
		{Pos: posAt(lineOf(trailing)), Analyzer: "units", Message: "z"},
		// Two lines below a suppression: kept.
		{Pos: posAt(lineOf(standalone) + 2), Analyzer: "units", Message: "w"},
	}
	kept := newAllowTracker(allows).suppress(fset, diags)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	if kept[0].Message != "z" || kept[1].Message != "w" {
		t.Errorf("kept = %q, %q; want z, w", kept[0].Message, kept[1].Message)
	}
}

// TestSuppressionScoping is the regression test for the allow-scoping
// bug: each form must cover exactly one line (trailing → its own,
// standalone → the one below) and only its named analyzer. Before the
// fix a trailing allow also swallowed same-analyzer findings on the
// next line.
func TestSuppressionScoping(t *testing.T) {
	fset, files := parseAllowSrc(t)
	known := map[string]bool{"determinism": true, "units": true}
	allows, _ := CollectAllows(fset, files, known)
	trailing, standalone := allows[0], allows[1]

	if !trailing.Trailing {
		t.Error("allow after code on the line not detected as trailing")
	}
	if standalone.Trailing {
		t.Error("allow on its own line misdetected as trailing")
	}

	posAt := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}

	diags := []Diagnostic{
		// Line below a TRAILING suppression, same analyzer: must be kept.
		{Pos: posAt(trailing.Line + 1), Analyzer: "determinism", Message: "below-trailing"},
		// Same line as a STANDALONE suppression (the comment's own line):
		// must be kept — nothing but the comment is there to suppress.
		{Pos: posAt(standalone.Line), Analyzer: "units", Message: "on-standalone"},
		// A different analyzer's finding on a covered line: must be kept
		// even though a suppression covers that line for another analyzer.
		{Pos: posAt(standalone.Line + 1), Analyzer: "determinism", Message: "other-analyzer"},
		// Control: the intended targets are still suppressed.
		{Pos: posAt(trailing.Line), Analyzer: "determinism", Message: "on-trailing"},
		{Pos: posAt(standalone.Line + 1), Analyzer: "units", Message: "below-standalone"},
	}
	kept := newAllowTracker(allows).suppress(fset, diags)
	var msgs []string
	for _, d := range kept {
		msgs = append(msgs, d.Message)
	}
	want := []string{"below-trailing", "on-standalone", "other-analyzer"}
	if len(msgs) != len(want) {
		t.Fatalf("kept = %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Errorf("kept[%d] = %q, want %q", i, msgs[i], want[i])
		}
	}
}

// TestAllowTrackerStale exercises the used-marking that feeds stale
// detection: suppressing a diagnostic or being consulted via match
// marks an allow used; untouched allows stay stale.
func TestAllowTrackerStale(t *testing.T) {
	fset, files := parseAllowSrc(t)
	known := map[string]bool{"determinism": true, "units": true}
	allows, _ := CollectAllows(fset, files, known)
	tr := newAllowTracker(allows)

	posAt := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}

	// Suppress a diagnostic covered by the trailing determinism allow.
	kept := tr.suppress(fset, []Diagnostic{
		{Pos: posAt(allows[0].Line), Analyzer: "determinism", Message: "x"},
	})
	if len(kept) != 0 {
		t.Fatalf("kept = %+v, want none", kept)
	}
	if !tr.used[0] {
		t.Error("suppressing a diagnostic did not mark the allow used")
	}
	if tr.used[1] {
		t.Error("unrelated allow marked used")
	}

	// Consulting via match (the Pass.Allowed path) also marks used.
	if !tr.match("units", fset.Position(posAt(allows[1].Line+1))) {
		t.Fatal("match missed the standalone units allow")
	}
	if !tr.used[1] {
		t.Error("match did not mark the allow used")
	}
}

func TestMalformedAllowDoesNotSuppress(t *testing.T) {
	fset, files := parseAllowSrc(t)
	allows, _ := CollectAllows(fset, files, map[string]bool{"determinism": true})

	// The reason-less //lint:allow determinism in func c must not have
	// produced an Allow for its line.
	tf := fset.File(files[0].Pos())
	for _, a := range allows {
		line := a.Line
		text := allowSrc[tf.Offset(tf.LineStart(line)):]
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			text = text[:i]
		}
		if strings.Contains(text, "_ = 3") {
			t.Errorf("reason-less suppression was honored: %+v", a)
		}
	}
}
