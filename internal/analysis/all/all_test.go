package all

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/analysis"
)

// TestThreeAnalyzers pins the analyzer set: detlint, errladder and
// rejectcode, each kept because a seeded bug of its class passes every
// test. Each name appears once, so a directive names exactly one analyzer.
func TestThreeAnalyzers(t *testing.T) {
	want := map[string]bool{"detlint": true, "errladder": true, "rejectcode": true}
	if len(Analyzers) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(Analyzers), len(want))
	}
	for _, a := range Analyzers {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("missing analyzer %q", name)
	}
}

// TestRegistryMatchesAnalyzers proves Analyzers is the directive registry:
// a reasoned //karousos:<name>-ok directive is well-formed for every
// analyzer here, and the retired check names (conclint's locklint, the
// old detlint spelling nondeterminism, the conclint package name, and the
// deleted advicetaint and leaklint) are unknown, so a leftover directive
// for one of them cannot pass silently.
func TestRegistryMatchesAnalyzers(t *testing.T) {
	var src strings.Builder
	src.WriteString("package p\n\nfunc f() {\n")
	for _, a := range Analyzers {
		src.WriteString("\t//karousos:" + a.Name + "-ok reviewed reason\n")
	}
	retired := []string{"locklint", "nondeterminism", "conclint", "advicetaint", "leaklint"}
	for _, name := range retired {
		src.WriteString("\t//karousos:" + name + "-ok reviewed reason\n")
	}
	src.WriteString("\t_ = 1\n}\n")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src.String(), parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &analysis.Pass{Analyzer: Analyzers[0], Fset: fset, Files: []*ast.File{f}}
	ds := analysis.CheckDirectives(p, Analyzers)
	if len(ds) != len(retired) {
		t.Fatalf("got %d directive diagnostics, want one per retired name (%d): %v", len(ds), len(retired), ds)
	}
	for i, name := range retired {
		if want := `unknown karousos directive check "` + name + `"`; !strings.Contains(ds[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, ds[i].Message, want)
		}
	}
}
