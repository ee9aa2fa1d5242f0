// Package detlint proves, at compile time, that the verdict-affecting
// packages compute a deterministic function of (trace, advice) — the paper's
// acceptance guarantee (§4, Appendix C) collapses if re-execution order or
// rejection reasons can vary between runs on identical input.
//
// In the packages listed in Packages it flags:
//
//   - range over a map, unless the loop body is provably order-insensitive
//     (only map writes, deletes, and integer accumulation) or it is the
//     collect-keys idiom whose slice is sorted later in the same function;
//   - time.Now / time.Since calls (wall-clock reads);
//   - importing math/rand or math/rand/v2;
//   - select statements with two or more communication cases (the runtime
//     picks a ready case pseudo-randomly);
//   - goroutine launches that are not the deterministic fan-out idiom: the
//     launched body must be an inline func literal, and it may write to
//     outer state only through indexed slots (results[i] = ...) or
//     channels — per-goroutine slots merged in canonical order by the
//     spawner keep the verdict schedule-independent, whereas a direct
//     assignment to an outer variable races the merge order into the
//     verdict. Any other launch (a named function, a function value, an
//     interface method) is flagged: its writes are not checked here.
//
// The only escape hatch is an explicit, reasoned directive on or above the
// flagged line:
//
//	//karousos:detlint-ok <reason>
//
// Test files are not analyzed: test randomness is legitimate when seeded and
// logged (see internal/verifier/completeness_test.go).
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"karousos.dev/karousos/internal/analysis"
)

// Packages are the verdict-affecting packages this analyzer self-scopes to
// (matched by import-path suffix; slash-free fixture packages always match).
var Packages = []string{
	"internal/verifier",
	"internal/graph",
	"internal/adya",
	"internal/seqreexec",
	"internal/mv",
	"internal/auditd",
	"internal/shard",
}

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "flag nondeterminism (unsorted map iteration, wall-clock reads, math/rand, multi-case select) " +
		"in verdict-affecting packages; suppress with //karousos:detlint-ok <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgInScope(pass.Pkg.Path(), Packages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "imports %s in a verdict-affecting package; verdicts must be deterministic functions of (trace, advice)", path)
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkFunc walks one function body. FuncLits are walked with their own
// body as the enclosing scope for the collect-then-sort check.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, n.Body)
			return false
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(n.X)) {
				checkMapRange(pass, body, n)
			}
		case *ast.CallExpr:
			if pkg, name := calleePkgFunc(pass.TypesInfo, n); pkg == "time" && (name == "Now" || name == "Since") {
				pass.Reportf(n.Pos(), "calls time.%s on a verdict path; wall-clock reads make re-execution nondeterministic", name)
			}
		case *ast.SelectStmt:
			comms := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				pass.Reportf(n.Pos(), "select with %d communication cases chooses pseudo-randomly among ready channels on a verdict path", comms)
			}
		case *ast.GoStmt:
			checkGoStmt(pass, n)
		}
		return true
	})
}

// checkGoStmt constrains goroutine launches on verdict paths to the
// deterministic fan-out idiom: an inline func literal that collects results
// in per-goroutine indexed slots (or sends them over channels) for the
// spawner to merge in canonical order after the pool drains. Any other
// launch is flagged, since its writes are not checked.
func checkGoStmt(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		pass.Reportf(g.Pos(), "go launches something other than a func literal on a verdict path; spawn an inline func literal so the goroutine's writes are checkable (deterministic fan-out idiom)")
		return
	}
	check := func(lhs ast.Expr) {
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		switch lhs.(type) {
		case *ast.IndexExpr, *ast.StarExpr:
			return // an indexed slot or a dereference: the slot-ownership argument
		}
		obj := pass.TypesInfo.ObjectOf(root)
		if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
			return // the goroutine's own local (or parameter)
		}
		pass.Reportf(lhs.Pos(), "goroutine assigns outer variable %q directly; shared state then depends on scheduling — write to an indexed slot (%s[i] = ...) and merge in canonical order after the pool drains", root.Name, root.Name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// rootIdent unwraps selectors, indexes, stars, and parens to the base
// identifier of an assignment target; nil when the base is not an ident
// (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleePkgFunc resolves a call like time.Now() to ("time", "Now");
// ("", "") for anything that is not a direct package-level call.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// checkMapRange decides whether one map-range statement is benign.
func checkMapRange(pass *analysis.Pass, enclBody *ast.BlockStmt, rs *ast.RangeStmt) {
	targets := map[types.Object]bool{}
	if bodyOrderInsensitive(pass.TypesInfo, rs.Body.List, targets) {
		for obj := range targets {
			if !sortedAfter(pass, enclBody, rs, obj) {
				pass.Reportf(rs.Pos(), "map iteration order escapes through %q, which is never sorted in this function; sort it or annotate //karousos:detlint-ok", obj.Name())
				return
			}
		}
		return
	}
	pass.Reportf(rs.Pos(), "iterates a map in nondeterministic order on a verdict path; iterate sorted keys, make the body order-insensitive, or annotate //karousos:detlint-ok")
}

// bodyOrderInsensitive reports whether executing stmts for the map's entries
// in any order yields identical state. Allowed: writes to map entries,
// delete, integer accumulation (x += e, x++, x |= e, x ^= e, x &= e), local
// declarations, continue, nested if/range obeying the same rules — and
// appends `x = append(x, ...)`, whose target objects are collected into
// targets for the caller's sorted-later check.
func bodyOrderInsensitive(info *types.Info, stmts []ast.Stmt, targets map[types.Object]bool) bool {
	for _, s := range stmts {
		if !stmtOrderInsensitive(info, s, targets) {
			return false
		}
	}
	return true
}

func stmtOrderInsensitive(info *types.Info, s ast.Stmt, targets map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if obj := appendTarget(info, s); obj != nil {
			targets[obj] = true
			return true
		}
		switch s.Tok {
		case token.DEFINE:
			// Locals are scoped per iteration.
			return true
		case token.ASSIGN:
			// Plain assignments must all hit map entries (distinct keys per
			// iteration commute) or the blank identifier.
			for _, lhs := range s.Lhs {
				if !isMapIndexOrBlank(info, lhs) {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
			return len(s.Lhs) == 1 && isIntegerExpr(info, s.Lhs[0])
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerExpr(info, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && isBuiltin(info, id, "delete")
	case *ast.DeclStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil && !stmtOrderInsensitive(info, s.Init, targets) {
			return false
		}
		if !bodyOrderInsensitive(info, s.Body.List, targets) {
			return false
		}
		if s.Else != nil {
			if eb, ok := s.Else.(*ast.BlockStmt); ok {
				return bodyOrderInsensitive(info, eb.List, targets)
			}
			return stmtOrderInsensitive(info, s.Else, targets)
		}
		return true
	case *ast.RangeStmt:
		// A nested range over a slice (deterministic order) with a conforming
		// body is fine; a nested map range is checked on its own.
		if isMapType(info.TypeOf(s.X)) {
			return false
		}
		return bodyOrderInsensitive(info, s.Body.List, targets)
	}
	return false
}

// isMapIndexOrBlank reports whether lhs is m[k] (m a map) or _.
func isMapIndexOrBlank(info *types.Info, lhs ast.Expr) bool {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	ix, ok := lhs.(*ast.IndexExpr)
	return ok && isMapType(info.TypeOf(ix.X))
}

// isIntegerExpr reports whether e has an integer type (accumulation with
// +=/|=/^=/&=/++ over integers commutes; float addition does not).
func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// appendTarget matches `x = append(x, ...)` (also +=-free grow-only form
// with := redeclaration) and returns x's object.
func appendTarget(info *types.Info, s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || !isBuiltin(info, fn, "append") || len(call.Args) == 0 {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	lobj := info.ObjectOf(lhs)
	if lobj == nil || lobj != info.ObjectOf(first) {
		return nil
	}
	return lobj
}

// sortedAfter reports whether obj is passed to a sort/slices call after the
// range statement, within the same function body.
func sortedAfter(pass *analysis.Pass, enclBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		pkg, _ := calleePkgFunc(pass.TypesInfo, call)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
