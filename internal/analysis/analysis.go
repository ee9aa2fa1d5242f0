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
// The analyzers in the subpackages prove, at compile time, invariants the
// dynamic layers (chaos scenarios, fuzzers, verifier.Limits) only sample:
//
//   - detlint:    the verdict is a deterministic function of (trace, advice) —
//     no unsorted map iteration, wall-clock reads, math/rand, or
//     multi-case selects on verdict paths.
//   - advicetaint: every advice-derived length is clamped before it reaches
//     an allocation, loop bound, path, verdict branch, or cache key.
//   - errladder:  I/O errors in the pipeline flow through the iofault
//     classification ladder, never raw == comparisons or silent drops.
//   - rejectcode: errors crossing the Audit boundary carry a core.RejectCode
//     and RejectCode switches/registries are exhaustive.
//
// # Directive grammar
//
// A finding is suppressed only by an explicit, reasoned directive on the
// flagged line or the line directly above it:
//
//	//karousos:<check>-ok <reason>
//
// where <check> is a check name some registered analyzer owns (Register),
// e.g. "nondeterminism" (detlint) or "leaklint" (conclint), and <reason> is
// non-empty free text read by the reviewer, not the tool. A directive with
// an unknown check name or an empty reason is itself a diagnostic
// (CheckDirectives), so the escape hatch cannot rot into bare unexplained
// pragmas.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name is the short command-line name (e.g. "detlint").
	Name string
	// Doc is the one-paragraph description printed by karousos-vet -list.
	Doc string
	// Checks are the suppression-directive check names this analyzer owns.
	// Empty means one check named after the analyzer. The first entry is
	// the default check Reportf uses; multi-check analyzers (conclint's
	// leaklint/locklint) report the rest through ReportfAs.
	Checks []string
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
	// Program, when the driver sets it, is the whole loaded package set —
	// the interprocedural analyzers (advicetaint, retrysound, conclint)
	// build their call graph and dataflow summaries from it. nil restricts
	// those analyzers to the pass's own package.
	Program *Program
	// Report delivers one diagnostic. The driver sets it; analyzers call
	// Reportf.
	Report func(Diagnostic)
	// ReportSuppressed, when set by the driver (karousos-vet -json),
	// delivers findings covered by a //karousos: directive with
	// Diagnostic.Suppressed=true instead of dropping them, so the machine-
	// readable output carries the full suppression state.
	ReportSuppressed bool

	directives []Directive // lazily built
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	// Check is the directive check name that suppresses this finding.
	Check   string
	Message string
	// Suppressed marks a finding covered by a reviewed directive; only
	// delivered when Pass.ReportSuppressed is set.
	Suppressed bool
}

// Reportf reports a finding at pos under the analyzer's default check name
// unless a matching //karousos: directive suppresses it there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfAs(p.Analyzer.check(), pos, format, args...)
}

// ReportfAs reports a finding under an explicit check name — the path for
// analyzers that own more than one check (conclint).
func (p *Pass) ReportfAs(check string, pos token.Pos, format string, args ...any) {
	d := Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Check: check, Message: fmt.Sprintf(format, args...)}
	if p.Suppressed(check, pos) {
		if !p.ReportSuppressed {
			return
		}
		d.Suppressed = true
	}
	p.Report(d)
}

// check is the analyzer's default directive check name.
func (a *Analyzer) check() string {
	if len(a.Checks) > 0 {
		return a.Checks[0]
	}
	return a.Name
}

// checkNames is every check name the analyzer owns.
func (a *Analyzer) checkNames() []string {
	if len(a.Checks) > 0 {
		return a.Checks
	}
	return []string{a.Name}
}

// registry maps directive check names to the analyzer that owns them.
// Analyzers register themselves in init, so importing an analyzer package
// is what makes its suppressions well-formed — a directive for a check
// nobody registered is flagged by CheckDirectives.
var registry = struct {
	sync.Mutex
	checks map[string]string // check name -> analyzer name
}{checks: map[string]string{}}

// Register records an analyzer's check names in the directive registry.
// Analyzer packages call it from init. Registering the same (check,
// analyzer) pair twice is a no-op; claiming another analyzer's check name
// panics — two analyzers must not share an escape hatch.
func Register(a *Analyzer) {
	registry.Lock()
	defer registry.Unlock()
	for _, c := range a.checkNames() {
		if owner, ok := registry.checks[c]; ok && owner != a.Name {
			panic(fmt.Sprintf("analysis: check %q registered by both %s and %s", c, owner, a.Name))
		}
		registry.checks[c] = a.Name
	}
}

// KnownChecks returns the registered directive check names, sorted.
func KnownChecks() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.checks))
	for c := range registry.checks {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AnalyzerForCheck resolves a check name to its owning analyzer's name.
func AnalyzerForCheck(check string) (string, bool) {
	registry.Lock()
	defer registry.Unlock()
	a, ok := registry.checks[check]
	return a, ok
}

// Directive is one parsed //karousos: comment.
type Directive struct {
	Pos    token.Pos
	File   string
	Line   int
	Check  string // e.g. "nondeterminism"
	Reason string // free text after the check; must be non-empty
	Raw    string
}

var directiveRE = regexp.MustCompile(`^//karousos:([a-z][a-z-]*)-ok(?:[ \t]+(.*))?$`)

// parseDirectives scans every comment in the pass's files.
func (p *Pass) parseDirectives() []Directive {
	if p.directives != nil {
		return p.directives
	}
	var out []Directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, Directive{
					Pos:    c.Pos(),
					File:   pos.Filename,
					Line:   pos.Line,
					Check:  m[1],
					Reason: strings.TrimSpace(m[2]),
					Raw:    c.Text,
				})
			}
		}
	}
	if out == nil {
		out = []Directive{} // mark "parsed, none found"
	}
	p.directives = out
	return out
}

// Suppressed reports whether a well-formed //karousos:<check>-ok directive
// covers pos: same line, or the line directly above (a comment hanging over
// the flagged statement). Malformed directives (unknown check, no reason)
// never suppress — CheckDirectives flags them instead.
func (p *Pass) Suppressed(check string, pos token.Pos) bool {
	where := p.Fset.Position(pos)
	for _, d := range p.parseDirectives() {
		if d.Check != check || d.Reason == "" {
			continue
		}
		if d.File == where.Filename && (d.Line == where.Line || d.Line == where.Line-1) {
			return true
		}
	}
	return false
}

// CheckDirectives validates every //karousos: directive in the pass's files:
// the check name must be known and the reason non-empty. The driver runs it
// once per package, independent of which analyzers are selected, so a typoed
// or bare directive can never silently suppress nothing.
func CheckDirectives(p *Pass) []Diagnostic {
	var out []Diagnostic
	known := KnownChecks()
	for _, d := range p.parseDirectives() {
		switch {
		case !slicesContains(known, d.Check):
			out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "directive", Check: "directive",
				Message: fmt.Sprintf("unknown karousos directive check %q (known: %s)", d.Check, strings.Join(known, ", "))})
		case d.Reason == "":
			out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "directive", Check: "directive",
				Message: fmt.Sprintf("karousos:%s-ok directive needs a reason", d.Check)})
		}
	}
	return out
}

func slicesContains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
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
