// Package rejectcode keeps the rejection taxonomy machine-readable: every
// error a function on the audit boundary constructs carries a
// core.RejectCode. The CLI's exit status and reason-code output key on
// these codes; an uncoded rejection silently downgrades a machine-readable
// verdict to prose, and a unit test sees only the return paths it drives.
//
// In functions whose name begins with Audit/audit and which return an
// error, returning a bare errors.New(...) or a fmt.Errorf(...) without %w
// is flagged: construct a core.Reject (which carries a code) or wrap the
// coded cause with %w. (That AllRejectCodes lists every code is
// core.TestRejectCodeRegistry's job.)
//
// The escape hatch is //karousos:rejectcode-ok <reason>.
package rejectcode

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"karousos.dev/karousos/internal/analysis"
)

// Analyzer is the rejectcode pass. It runs over every package.
var Analyzer = &analysis.Analyzer{
	Name: "rejectcode",
	Doc:  "require Audit-boundary errors to carry a RejectCode; suppress with //karousos:rejectcode-ok <reason>",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				checkAuditBoundary(pass, fd)
			}
		}
	}
	return nil
}

// checkAuditBoundary flags uncoded error constructions returned from
// Audit-boundary functions.
func checkAuditBoundary(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || !strings.HasPrefix(strings.ToLower(fd.Name.Name), "audit") {
		return
	}
	if fd.Type.Results == nil {
		return
	}
	errIdx := -1
	idx := 0
	for _, field := range fd.Type.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if isErrorType(pass.TypesInfo.TypeOf(field.Type)) {
				errIdx = idx
			}
			idx++
		}
	}
	if errIdx < 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its returns belong to the literal
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) <= errIdx {
			return true
		}
		if call, ok := ret.Results[errIdx].(*ast.CallExpr); ok && isUncodedErrorCtor(pass, call) {
			pass.Reportf(ret.Pos(), "returns an uncoded error across the Audit boundary; construct a core.Reject with a RejectCode or wrap the coded cause with %%w")
		}
		return true
	})
}

// isUncodedErrorCtor matches errors.New(...) and fmt.Errorf without a %w
// verb — error constructions that cannot carry a RejectCode.
func isUncodedErrorCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch {
	case pn.Imported().Path() == "errors" && sel.Sel.Name == "New":
		return true
	case pn.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
		if len(call.Args) == 0 {
			return false
		}
		if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
			return !strings.Contains(constant.StringVal(tv.Value), "%w")
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
