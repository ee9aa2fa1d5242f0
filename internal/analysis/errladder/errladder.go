// Package errladder is the static twin of the iofault degradation ladder
// (DESIGN.md §11): I/O errors in the pipeline packages must be matched
// through errors.Is / iofault.Classify, never raw comparisons. A raw ==
// against a sentinel, like the legacy os predicates, misses wrapped errors
// and every injected *iofault.FaultError — the bug it caught was
// os.IsNotExist on auditd's checkpoint path, blind to a wrapped
// ErrNotExist.
//
// In the packages listed in Packages it flags:
//
//   - binary == / != where an operand is an error and the other is not nil;
//   - the legacy os.IsNotExist / os.IsExist / os.IsPermission / os.IsTimeout
//     predicates (they do not unwrap; use errors.Is or iofault.Classify).
//
// The escape hatch is //karousos:errladder-ok <reason> on or above the line.
package errladder

import (
	"go/ast"
	"go/token"
	"go/types"

	"karousos.dev/karousos/internal/analysis"
)

// Packages are the pipeline packages this analyzer self-scopes to.
var Packages = []string{
	"internal/epochlog",
	"internal/collectorhttp",
	"internal/auditd",
}

// Analyzer is the errladder pass.
var Analyzer = &analysis.Analyzer{
	Name: "errladder",
	Doc: "require pipeline I/O errors to be matched through errors.Is/iofault.Classify — no raw error " +
		"comparisons, no legacy os.IsNotExist; suppress with //karousos:errladder-ok <reason>",
	Run: run,
}

var legacyPredicates = map[string]string{
	"IsNotExist":   "errors.Is(err, os.ErrNotExist)",
	"IsExist":      "errors.Is(err, os.ErrExist)",
	"IsPermission": "errors.Is(err, os.ErrPermission)",
	"IsTimeout":    "iofault.Classify",
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgInScope(pass.Pkg.Path(), Packages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.CallExpr:
				checkLegacyPredicate(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkComparison flags err == sentinel / err != sentinel.
func checkComparison(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if isNil(pass.TypesInfo, b.X) || isNil(pass.TypesInfo, b.Y) {
		return
	}
	if isErrorType(pass.TypesInfo.TypeOf(b.X)) || isErrorType(pass.TypesInfo.TypeOf(b.Y)) {
		pass.Reportf(b.Pos(), "raw error comparison misses wrapped errors and injected faults; use errors.Is or iofault.Classify")
	}
}

// checkLegacyPredicate flags os.IsNotExist and friends.
func checkLegacyPredicate(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "os" {
		return
	}
	if repl, ok := legacyPredicates[sel.Sel.Name]; ok {
		pass.Reportf(call.Pos(), "os.%s does not unwrap errors (retry/fault wrappers break it); use %s", sel.Sel.Name, repl)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
