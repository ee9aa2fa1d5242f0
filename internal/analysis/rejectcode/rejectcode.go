// Package rejectcode proves the rejection taxonomy is airtight: every error
// crossing the Audit boundary carries a core.RejectCode, and every place
// that enumerates RejectCode values — switch statements and the
// AllRejectCodes registry — is exhaustive over the constants declared next
// to the type. The CLI's exit-status logic and the README's reason-code
// table both key on these codes; an uncoded rejection or a forgotten enum
// row silently downgrades a machine-readable verdict to prose.
//
// Checks (all packages):
//
//   - a switch whose tag has type RejectCode and no default clause must
//     cover every declared RejectCode constant;
//   - a function named AllRejectCodes must return a composite literal
//     listing every declared RejectCode constant;
//   - in functions whose name begins with Audit/audit and which return an
//     error, returning a bare errors.New(...) or a fmt.Errorf(...) without
//     %w is flagged: construct a core.Reject (which carries a code) or wrap
//     the coded cause with %w.
//
// The escape hatch is //karousos:rejectcode-ok <reason>.
package rejectcode

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"karousos.dev/karousos/internal/analysis"
)

// Analyzer is the rejectcode pass. It scopes itself to any package that
// mentions a RejectCode type, so it runs usefully over ./... .
var Analyzer = &analysis.Analyzer{
	Name: "rejectcode",
	Doc: "require RejectCode switches and the AllRejectCodes registry to be exhaustive, and Audit-boundary " +
		"errors to carry a code; suppress with //karousos:rejectcode-ok <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.FuncDecl:
				if n.Name.Name == "AllRejectCodes" {
					checkRegistry(pass, n)
				}
				checkAuditBoundary(pass, n)
			}
			return true
		})
	}
	return nil
}

// rejectCodeType returns the named RejectCode type of t, nil otherwise.
func rejectCodeType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "RejectCode" {
		return nil
	}
	return named
}

// declaredCodes enumerates the RejectCode constants declared in the type's
// own package (works for core via export data and for fixture-local types).
func declaredCodes(named *types.Named) map[string]bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	out := map[string]bool{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if ct := rejectCodeType(c.Type()); ct != nil && ct.Obj() == named.Obj() {
			out[constant.StringVal(c.Val())] = true
		}
	}
	return out
}

// checkSwitch enforces exhaustiveness on RejectCode switches without a
// default clause.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named := rejectCodeType(pass.TypesInfo.TypeOf(sw.Tag))
	if named == nil {
		return
	}
	universe := declaredCodes(named)
	if len(universe) == 0 {
		return
	}
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: the switch handles unknown codes
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[constant.StringVal(tv.Value)] = true
			}
		}
	}
	missing := diff(universe, covered)
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(), "RejectCode switch without default is missing %s; add the cases or a default", strings.Join(missing, ", "))
	}
}

// checkRegistry enforces that AllRejectCodes' composite literal lists every
// declared constant.
func checkRegistry(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 || fd.Body == nil {
		return
	}
	var named *types.Named
	if slice, ok := pass.TypesInfo.TypeOf(fd.Type.Results.List[0].Type).(*types.Slice); ok {
		named = rejectCodeType(slice.Elem())
	}
	if named == nil {
		return
	}
	universe := declaredCodes(named)
	listed := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, e := range cl.Elts {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				listed[constant.StringVal(tv.Value)] = true
			}
		}
		return true
	})
	missing := diff(universe, listed)
	if len(missing) > 0 {
		pass.Reportf(fd.Pos(), "AllRejectCodes registry is missing %s; every declared code must be listed", strings.Join(missing, ", "))
	}
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

// diff returns universe − covered, sorted.
func diff(universe, covered map[string]bool) []string {
	var missing []string
	for code := range universe {
		if !covered[code] {
			missing = append(missing, code)
		}
	}
	sort.Strings(missing)
	return missing
}
