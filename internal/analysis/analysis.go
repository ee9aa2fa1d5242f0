// Package analysis is the repo's static-analysis framework: the core types
// of a golang.org/x/tools/go/analysis-shaped pass (Analyzer, Pass,
// Diagnostic) plus the //karousos: suppression-directive grammar shared by
// every checker.
//
// The container this repo builds in has no module proxy access, so the
// framework is self-hosted on the standard library alone: packages are
// loaded by internal/analysis/load (go list -export + go/types) and the
// Analyzer API mirrors x/tools closely enough that a pass written here ports
// to the upstream driver by changing imports.
//
// The analyzers in the subpackages (internal/analysis/all lists them) guard
// invariants that a seeded bug can break while every test still passes
// (DESIGN.md §12 records the seeds):
//
//   - detlint:    the verdict is a deterministic function of (trace, advice) —
//     no unsorted map iteration, wall-clock reads, math/rand, multi-case
//     selects or unchecked goroutine writes on verdict paths.
//   - errladder:  pipeline I/O errors are matched with errors.Is or
//     iofault.Classify, never raw == comparisons or os.IsNotExist and
//     its siblings.
//   - rejectcode: errors crossing the Audit boundary carry a core.RejectCode.
//
// # Directive grammar
//
// A finding is suppressed only by an explicit, reasoned directive on the
// flagged line or the line directly above it:
//
//	//karousos:<analyzer>-ok <reason>
//
// where <analyzer> is the Name of the analyzer that reports the finding,
// e.g. "detlint", and <reason> is non-empty free text read by the reviewer,
// not the tool. A directive naming no known analyzer or carrying no reason
// is itself a diagnostic (CheckDirectives), so the escape hatch cannot rot
// into bare unexplained pragmas; so is a well-formed directive that
// suppresses no finding (UnusedDirectives), so it cannot outlive the
// finding it was written for.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name is the short command-line name (e.g. "detlint") and the check
	// name of its suppression directive (//karousos:detlint-ok).
	Name string
	// Doc is the one-paragraph description printed by karousos-vet -list.
	Doc string
	// Run executes the pass over one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver sets it; analyzers call
	// Reportf.
	Report func(Diagnostic)

	directives []directive // lazily built
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos token.Pos
	// Analyzer is the reporting analyzer's name, which is also the check
	// name of the directive that suppresses the finding; "directive" for
	// directive-hygiene findings.
	Analyzer string
	Message  string
	// Suppressed marks a finding covered by a reviewed directive. The
	// driver counts it as clean but still sees it, so it knows which
	// directives suppressed something and -json carries the full
	// suppression state.
	Suppressed bool
}

// Reportf reports a finding at pos, marked Suppressed when a matching
// //karousos:<analyzer>-ok directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...),
		Suppressed: p.suppressed(pos),
	})
}

// directive is one parsed //karousos: comment.
type directive struct {
	pos    token.Pos
	file   string
	line   int
	check  string // an analyzer name, e.g. "detlint"
	reason string // free text after the check; must be non-empty
}

var directiveRE = regexp.MustCompile(`^//karousos:([a-z][a-z-]*)-ok(?:[ \t]+(.*))?$`)

// parseDirectives scans every comment in the pass's files.
func (p *Pass) parseDirectives() []directive {
	if p.directives != nil {
		return p.directives
	}
	out := []directive{} // non-nil marks "parsed, none found"
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, directive{
					pos:    c.Pos(),
					file:   pos.Filename,
					line:   pos.Line,
					check:  m[1],
					reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	p.directives = out
	return out
}

// suppressed reports whether a well-formed //karousos:<analyzer>-ok
// directive for the pass's analyzer covers pos: same line, or the line
// directly above (a comment hanging over the flagged statement). A
// reasonless directive never suppresses — CheckDirectives flags it instead.
func (p *Pass) suppressed(pos token.Pos) bool {
	where := p.Fset.Position(pos)
	for _, d := range p.parseDirectives() {
		if d.covers(p.Analyzer.Name, where) {
			return true
		}
	}
	return false
}

// covers reports whether d suppresses a check finding at where.
func (d directive) covers(check string, where token.Position) bool {
	return d.check == check && d.reason != "" && d.file == where.Filename &&
		(d.line == where.Line || d.line == where.Line-1)
}

// CheckDirectives validates every //karousos: directive in the pass's files
// against the known analyzers: the check must name one of them and the
// reason must be non-empty. The driver runs it once per package with every
// analyzer it has, so a typoed or bare directive can never silently
// suppress nothing.
func CheckDirectives(p *Pass, known []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range p.parseDirectives() {
		switch {
		case !isKnown(known, d.check):
			names := make([]string, len(known))
			for i, a := range known {
				names[i] = a.Name
			}
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("unknown karousos directive check %q (known: %s)", d.check, strings.Join(names, ", "))})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("karousos:%s-ok directive needs a reason", d.check)})
		}
	}
	return out
}

// UnusedDirectives reports every well-formed directive in the pass's files
// that covers none of the suppressed findings in ds, the diagnostics every
// known analyzer reported for this package.
func UnusedDirectives(p *Pass, known []*Analyzer, ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range p.parseDirectives() {
		if d.reason == "" || !isKnown(known, d.check) {
			continue // malformed: CheckDirectives reports it
		}
		used := false
		for _, f := range ds {
			if f.Suppressed && d.covers(f.Analyzer, p.Fset.Position(f.Pos)) {
				used = true
				break
			}
		}
		if !used {
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("karousos:%s-ok directive suppresses no finding", d.check)})
		}
	}
	return out
}

func isKnown(known []*Analyzer, name string) bool {
	for _, a := range known {
		if a.Name == name {
			return true
		}
	}
	return false
}

// PkgInScope reports whether pkgPath is one of the packages an analyzer
// self-scopes to. Paths are matched by suffix ("internal/verifier" matches
// "karousos.dev/karousos/internal/verifier"); a path with no slash at all is
// an analysistest fixture package and is always in scope.
func PkgInScope(pkgPath string, suffixes []string) bool {
	if !strings.Contains(pkgPath, "/") {
		return true
	}
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
