package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// AllowPrefix introduces a suppression comment:
//
//	//lint:allow <analyzer> <reason>
//
// A well-formed suppression names one analyzer and gives a non-empty
// reason; it silences that analyzer's diagnostics on the same line or
// on the line directly below (so it works both trailing a statement and
// standing on its own line above one). The reason ends at the first
// "//" so a trailing comment does not count as explanation.
//
// Suppressions are themselves checked: a missing reason or an unknown
// analyzer name is reported as a diagnostic (analyzer "lintallow") and
// the suppression does not take effect.
const AllowPrefix = "lint:allow"

// An Allow is one well-formed suppression comment.
type Allow struct {
	Pos      token.Pos
	Line     int    // line the comment starts on
	File     string // filename the comment appears in
	Analyzer string
	Reason   string

	// Trailing records the comment's form: true when code ends on the
	// comment's own line (the comment trails a statement), false when
	// the comment stands alone. A trailing allow covers its own line
	// only; a standalone allow covers the line directly below only.
	// Matching both at once — the historical behavior — let a trailing
	// allow silently swallow the next line's finding too.
	Trailing bool
}

// codeEndLines records, per file, every line on which a non-comment
// syntax node ends. Line comments always sort after the code on their
// line, so "code ends on the comment's line" is exactly the trailing
// form.
func codeEndLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// CollectAllows extracts every //lint:allow comment from files.
// Malformed suppressions are returned as diagnostics; only well-formed
// ones suppress.
func CollectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]Allow, []Diagnostic) {
	var allows []Allow
	var bad []Diagnostic
	for _, f := range files {
		ends := codeEndLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, " ")
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowPrefix))
				// A nested comment is not a reason.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				pos := fset.Position(c.Pos())
				switch {
				case name == "":
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  "lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <reason>",
					})
				case !known[name]:
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  "lint:allow names unknown analyzer " + name,
					})
				case reason == "":
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  "lint:allow " + name + " is missing a reason; unexplained suppressions are not honored",
					})
				default:
					allows = append(allows, Allow{
						Pos:      c.Pos(),
						Line:     pos.Line,
						File:     pos.Filename,
						Analyzer: name,
						Reason:   reason,
						Trailing: ends[pos.Line],
					})
				}
			}
		}
	}
	return allows, bad
}

// matches reports whether the allow covers a position: same analyzer,
// same file, and — depending on form — the comment's own line (trailing)
// or exactly the line below (standalone).
func (a *Allow) matches(analyzer string, pos token.Position) bool {
	if a.Analyzer != analyzer || a.File != pos.Filename {
		return false
	}
	if a.Trailing {
		return a.Line == pos.Line
	}
	return a.Line+1 == pos.Line
}

// An allowTracker wraps a package's suppressions with per-allow usage
// accounting, feeding stale-suppression detection. An allow counts as
// used when it drops a diagnostic OR when an analyzer consults it via
// Pass.Allowed while computing facts (a suppression that blocks a fact
// export is load-bearing even though no diagnostic ever surfaces).
type allowTracker struct {
	allows []Allow
	used   []bool
}

func newAllowTracker(allows []Allow) *allowTracker {
	return &allowTracker{allows: allows, used: make([]bool, len(allows))}
}

// match reports whether any allow for analyzer covers pos, marking
// every covering allow used.
func (t *allowTracker) match(analyzer string, pos token.Position) bool {
	ok := false
	for i := range t.allows {
		if t.allows[i].matches(analyzer, pos) {
			t.used[i] = true
			ok = true
		}
	}
	return ok
}

// suppress drops the diagnostics an allow covers, marking each covering
// allow used.
func (t *allowTracker) suppress(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	if len(t.allows) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !t.match(d.Analyzer, fset.Position(d.Pos)) {
			kept = append(kept, d)
		}
	}
	return kept
}
