package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

var (
	detlintA   = &Analyzer{Name: "detlint"}
	errladderA = &Analyzer{Name: "errladder"}
)

func parsePass(t *testing.T, a *Analyzer, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    []*ast.File{f},
	}
}

func TestSuppressionSameLineAndAbove(t *testing.T) {
	src := `package p

func f() {
	//karousos:detlint-ok reviewed reason
	_ = 1
	_ = 2 //karousos:detlint-ok trailing reason

	_ = 3
}
`
	p := parsePass(t, detlintA, src)
	line := func(n int) token.Pos {
		return p.Fset.File(p.Files[0].Pos()).LineStart(n)
	}
	if !p.suppressed(line(5)) {
		t.Error("directive on the line above must suppress")
	}
	if !p.suppressed(line(6)) {
		t.Error("trailing directive on the same line must suppress")
	}
	if p.suppressed(line(8)) {
		t.Error("an unannotated line must not be suppressed")
	}
	if other := parsePass(t, errladderA, src); other.suppressed(line(5)) {
		t.Error("a directive for a different analyzer must not suppress")
	}
}

func TestCheckDirectivesFlagsMalformed(t *testing.T) {
	src := `package p

func f() {
	//karousos:detlint-ok
	//karousos:typo-check-ok some reason
	//karousos:errladder-ok a fine reason
	_ = 1
}
`
	p := parsePass(t, detlintA, src)
	ds := CheckDirectives(p, []*Analyzer{detlintA, errladderA})
	if len(ds) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(ds), ds)
	}
	var msgs []string
	for _, d := range ds {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "needs a reason") {
		t.Errorf("missing reasonless-directive diagnostic in %q", joined)
	}
	if !strings.Contains(joined, `unknown karousos directive check "typo-check" (known: detlint, errladder)`) {
		t.Errorf("missing unknown-check diagnostic in %q", joined)
	}
	// A reasonless directive must not suppress anything.
	line5 := p.Fset.File(p.Files[0].Pos()).LineStart(5)
	if p.suppressed(line5) {
		t.Error("a reasonless directive suppressed a finding")
	}
	// The known set comes from the caller: without errladder its
	// directive is unknown too.
	if ds := CheckDirectives(p, []*Analyzer{detlintA}); len(ds) != 3 {
		t.Errorf("with only detlint known: got %d diagnostics, want 3: %v", len(ds), ds)
	}
}

// TestUnusedDirectivesMatchesAnalyzer: a directive is used only by a
// suppressed finding of its own analyzer on its line or the line below.
// Malformed directives are left to CheckDirectives.
func TestUnusedDirectivesMatchesAnalyzer(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //karousos:detlint-ok used by the detlint finding here
	_ = 2 //karousos:errladder-ok only a detlint finding on this line
	_ = 3 //karousos:detlint-ok the finding here is not suppressed
	_ = 4 //karousos:detlint-ok
	_ = 5 //karousos:typo-ok a reason
}
`
	p := parsePass(t, detlintA, src)
	line := func(n int) token.Pos {
		return p.Fset.File(p.Files[0].Pos()).LineStart(n)
	}
	ds := []Diagnostic{
		{Pos: line(4), Analyzer: "detlint", Suppressed: true},
		{Pos: line(5), Analyzer: "detlint", Suppressed: true},
		{Pos: line(6), Analyzer: "detlint", Suppressed: false},
	}
	unused := UnusedDirectives(p, []*Analyzer{detlintA, errladderA}, ds)
	var got []int
	for _, d := range unused {
		got = append(got, p.Fset.Position(d.Pos).Line)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("unused directives on lines %v, want [5 6]: %v", got, unused)
	}
	if want := "karousos:errladder-ok directive suppresses no finding"; unused[0].Message != want {
		t.Errorf("message = %q, want %q", unused[0].Message, want)
	}
}

func TestPkgInScope(t *testing.T) {
	scope := []string{"internal/verifier", "internal/graph"}
	cases := []struct {
		path string
		want bool
	}{
		{"karousos.dev/karousos/internal/verifier", true},
		{"internal/graph", true},
		{"karousos.dev/karousos/internal/epochlog", false},
		{"karousos.dev/karousos/internal/verifierx", false},
		{"detlintfix", true}, // slash-free fixture package
	}
	for _, c := range cases {
		if got := PkgInScope(c.path, scope); got != c.want {
			t.Errorf("PkgInScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
