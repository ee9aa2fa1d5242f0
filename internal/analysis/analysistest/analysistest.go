// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (self-hosted; see
// internal/analysis).
//
// Fixture layout mirrors upstream: <testdata>/src/<pkg>/*.go, where <pkg> is
// a bare package name (no slash — internal/analysis treats slash-free paths
// as always in scope). Fixtures may import the standard library and any
// package of this module.
//
// Expectations are written on the offending line:
//
//	for k := range m { // want `iterates a map`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression; a line with no want comment must produce no diagnostics, and
// every want regexp must be matched by exactly one diagnostic on its line.
// The fixture's //karousos: directives are checked against the analyzer
// under test alone.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/load"
)

// expectation is one want regexp at a (file, line).
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads each fixture package under testdata/src, runs the analyzer, and
// reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, testdata, a, pkg)
	}
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, pkgname string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkgname)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no fixture files in %s", a.Name, dir)
	}
	sort.Strings(files)
	p, err := load.Files(pkgname, files)
	if err != nil {
		t.Fatalf("%s: loading fixture %s: %v", a.Name, pkgname, err)
	}

	expects, err := parseWants(p.Fset, p.Syntax)
	if err != nil {
		t.Fatalf("%s: %s: %v", a.Name, pkgname, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: a, Fset: p.Fset, Files: p.Syntax,
		Pkg: p.Types, TypesInfo: p.TypesInfo,
		Report: func(d analysis.Diagnostic) {
			if !d.Suppressed {
				got = append(got, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: running over %s: %v", a.Name, pkgname, err)
	}
	// A fixture's directives must name the analyzer under test and carry a
	// reason; a malformed one is an unexpected diagnostic like any other.
	got = append(got, analysis.CheckDirectives(pass, []*analysis.Analyzer{a})...)
	analysis.SortDiagnostics(p.Fset, got)

	for _, d := range got {
		pos := p.Fset.Position(d.Pos)
		matched := false
		for _, e := range expects {
			if e.hit || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s: expected diagnostic matching %s at %s:%d, got none", a.Name, e.raw, filepath.Base(e.file), e.line)
		}
	}
}

// parseWants extracts every want expectation from the fixture's comments.
func parseWants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", filepath.Base(pos.Filename), pos.Line, err)
				}
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %w", filepath.Base(pos.Filename), pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return out, nil
}

// splitPatterns parses a sequence of Go string literals (`...` or "...").
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted want pattern")
			}
			lit = s[1 : 1+end]
			s = s[end+2:]
		case '"':
			// Find the closing quote, honoring escapes, then unquote.
			i := 1
			for i < len(s) {
				if s[i] == '\\' {
					i += 2
					continue
				}
				if s[i] == '"' {
					break
				}
				i++
			}
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated quoted want pattern")
			}
			var err error
			lit, err = strconv.Unquote(s[:i+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted want pattern: %w", err)
			}
			s = s[i+1:]
		default:
			return nil, fmt.Errorf("want patterns must be quoted or backquoted, got %q", s)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment with no patterns")
	}
	return out, nil
}
