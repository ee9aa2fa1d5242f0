// Command karousos-vet is the multichecker for the repo's invariant
// analyzers (internal/analysis/all): detlint, errladder, rejectcode, plus
// the interprocedural passes advicetaint, retrysound, and conclint
// (leaklint + locklint), plus validation of every //karousos: suppression
// directive.
//
// Usage:
//
//	karousos-vet [-checks detlint,locklint] [-json] [packages]
//	karousos-vet -list
//
// With no packages it defaults to ./... . The whole package set is loaded
// into one analysis.Program first, so the interprocedural facts (call
// graph, taint summaries) see every function once and are shared by all
// analyzers. A package that fails to load costs one "load" diagnostic, not
// the run: the remaining packages are still vetted.
//
// -json emits a JSON array of diagnostics instead of text, including
// suppressed findings with their suppression state, for tooling that wants
// to audit what the //karousos: directives are hiding.
//
// Exit status: 0 when the tree is clean (suppressed findings are clean),
// 1 when any diagnostic or load problem is reported, 2 on a driver failure
// (flag error, unknown check name, go list itself failing). CI runs
// `karousos-vet ./...` and fails the build on any nonzero status, so every
// finding is either fixed or carries a reviewed //karousos:<check>-ok
// <reason> directive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/all"
	"karousos.dev/karousos/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	Check      string `json:"check"`
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("karousos-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	checks := fs.String("checks", "", "comma-separated analyzers or check names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array (includes suppressed findings)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all.Analyzers {
			name := a.Name
			if len(a.Checks) > 0 {
				name = fmt.Sprintf("%s (%s)", a.Name, strings.Join(a.Checks, ", "))
			}
			fmt.Fprintf(stdout, "%-24s %s\n", name, a.Doc)
		}
		return 0
	}

	selected, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintf(stderr, "karousos-vet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, problems, err := load.PackagesDiag(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "karousos-vet: %v\n", err)
		return 2
	}

	// One Program over every loaded package: the interprocedural facts are
	// built once and shared by all analyzers and packages.
	pps := make([]*analysis.ProgramPackage, 0, len(pkgs))
	for _, p := range pkgs {
		pps = append(pps, &analysis.ProgramPackage{
			PkgPath: p.PkgPath, Fset: p.Fset, Files: p.Syntax,
			Pkg: p.Types, TypesInfo: p.TypesInfo,
		})
	}
	prog := analysis.NewProgram(pps)

	exit := 0
	var out []jsonDiag
	for _, pb := range problems {
		exit = 1
		if *asJSON {
			out = append(out, jsonDiag{Check: "load", Analyzer: "load", Message: pb.Error()})
		} else {
			fmt.Fprintf(stdout, "%s: [load] %v\n", pb.PkgPath, pb.Err)
		}
	}

	for _, p := range pkgs {
		var ds []analysis.Diagnostic
		for _, a := range selected {
			pass := &analysis.Pass{
				Analyzer: a, Fset: p.Fset, Files: p.Syntax,
				Pkg: p.Types, TypesInfo: p.TypesInfo,
				Program:          prog,
				ReportSuppressed: *asJSON,
				Report:           func(d analysis.Diagnostic) { ds = append(ds, d) },
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "karousos-vet: %s over %s: %v\n", a.Name, p.PkgPath, err)
				return 2
			}
		}
		// Directive hygiene runs regardless of -checks: a typoed directive
		// must never silently suppress nothing.
		dirPass := &analysis.Pass{Fset: p.Fset, Files: p.Syntax, Pkg: p.Types, TypesInfo: p.TypesInfo}
		ds = append(ds, analysis.CheckDirectives(dirPass)...)

		analysis.SortDiagnostics(p.Fset, ds)
		for _, d := range ds {
			if !d.Suppressed {
				exit = 1
			}
			if *asJSON {
				out = append(out, jsonDiag{
					Check: d.Check, Analyzer: d.Analyzer,
					Pos: p.Fset.Position(d.Pos).String(), Message: d.Message,
					Suppressed: d.Suppressed,
				})
			} else {
				fmt.Fprintf(stdout, "%s: [%s] %s\n", p.Fset.Position(d.Pos), d.Check, d.Message)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonDiag{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "karousos-vet: encoding: %v\n", err)
			return 2
		}
	}
	return exit
}

// selectAnalyzers resolves -checks: each element may be an analyzer name
// or one of its check names (so -checks locklint selects conclint).
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return all.Analyzers, nil
	}
	var selected []*analysis.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a := findAnalyzer(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer or check %q (known checks: %s)",
				name, strings.Join(analysis.KnownChecks(), ", "))
		}
		if !seen[a.Name] {
			seen[a.Name] = true
			selected = append(selected, a)
		}
	}
	return selected, nil
}

func findAnalyzer(name string) *analysis.Analyzer {
	for _, a := range all.Analyzers {
		if a.Name == name {
			return a
		}
		for _, c := range a.Checks {
			if c == name {
				return a
			}
		}
	}
	return nil
}
