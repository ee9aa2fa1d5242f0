// Command karousos-vet is the multichecker for the repo's invariant
// analyzers (internal/analysis/all), plus validation of every //karousos:
// suppression directive.
//
// Usage:
//
//	karousos-vet [-json] [packages]
//	karousos-vet -list
//
// With no packages it defaults to ./... . A package that fails to load
// costs one "load" diagnostic, not the run: the remaining packages are
// still vetted.
//
// -json emits a JSON array of diagnostics instead of text, including
// suppressed findings with their suppression state, for tooling that wants
// to audit what the //karousos: directives are hiding. Every run also
// reports each well-formed directive that suppressed no finding.
//
// Exit status: 0 when the tree is clean (suppressed findings are clean),
// 1 when any diagnostic or load problem is reported, 2 on a driver failure
// (flag error, go list itself failing). CI runs `karousos-vet ./...` and
// fails the build on any nonzero status, so every finding is either fixed
// or carries a reviewed //karousos:<analyzer>-ok <reason> directive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/all"
	"karousos.dev/karousos/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("karousos-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array (includes suppressed findings)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
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

	exit := 0
	var out []jsonDiag
	for _, pb := range problems {
		exit = 1
		if *asJSON {
			out = append(out, jsonDiag{Analyzer: "load", Message: pb.Error()})
		} else {
			fmt.Fprintf(stdout, "%s: [load] %v\n", pb.PkgPath, pb.Err)
		}
	}

	for _, p := range pkgs {
		var ds []analysis.Diagnostic
		for _, a := range all.Analyzers {
			pass := &analysis.Pass{
				Analyzer: a, Fset: p.Fset, Files: p.Syntax,
				Pkg: p.Types, TypesInfo: p.TypesInfo,
				Report: func(d analysis.Diagnostic) { ds = append(ds, d) },
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "karousos-vet: %s over %s: %v\n", a.Name, p.PkgPath, err)
				return 2
			}
		}
		// Directive hygiene: a typoed directive must never silently
		// suppress nothing, and a well-formed one must suppress something.
		dirPass := &analysis.Pass{Fset: p.Fset, Files: p.Syntax, Pkg: p.Types, TypesInfo: p.TypesInfo}
		ds = append(ds, analysis.UnusedDirectives(dirPass, all.Analyzers, ds)...)
		ds = append(ds, analysis.CheckDirectives(dirPass, all.Analyzers)...)

		analysis.SortDiagnostics(p.Fset, ds)
		for _, d := range ds {
			if !d.Suppressed {
				exit = 1
			} else if !*asJSON {
				continue
			}
			if *asJSON {
				out = append(out, jsonDiag{
					Analyzer: d.Analyzer, Pos: p.Fset.Position(d.Pos).String(),
					Message: d.Message, Suppressed: d.Suppressed,
				})
			} else {
				fmt.Fprintf(stdout, "%s: [%s] %s\n", p.Fset.Position(d.Pos), d.Analyzer, d.Message)
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
