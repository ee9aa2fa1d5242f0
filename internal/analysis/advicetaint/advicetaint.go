// Package advicetaint is the static twin of the codec's hostile-length
// clamps (verifier.Limits, decoder.lengthElems): a taint pass from
// advice-decode primitives to the places an attacker-chosen number must
// never arrive unclamped, chased across function boundaries over the
// program call graph.
//
// A value minted by a raw wire read (IsSourceCall: binary.Uvarint /
// ReadUvarint / ByteOrder.UintNN and the decoder helpers named
// uvarint/intv) must pass a clamp — IsSanitizerName (lengthElems, length,
// CheckAdviceBytes, clamp*), or a relational comparison against a
// non-constant bound or a constant no larger than MaxConstBound — before it
// reaches any sink. A magnitude check against math.MaxInt32 (decoder.intv)
// deliberately does NOT clear taint: 2^31 elements is still an allocation
// bomb. The sinks:
//
//   - an allocation size: make, io.ReadFull / ReadAtLeast / CopyN, caught
//     even when the decode and the make live in different functions;
//   - a loop bound: a for-loop condition compared against an unclamped
//     advice-derived count spins the auditor on attacker-chosen work;
//   - a file path: os.Open / OpenFile / Create / ReadFile / WriteFile /
//     Remove / RemoveAll / MkdirAll with an advice-derived path escapes the
//     evidence directory;
//   - a verdict-affecting branch: an equality or boolean test of an
//     unclamped advice value that guards a `return Verdict{...}` lets the
//     server steer the audit outcome. Branches returning a RejectCode are
//     deliberately NOT sinks — rejecting on raw advice is validation;
//     accepting on it is the hazard;
//   - a memo-cache index: the key argument of Probe / Insert on a Cache
//     receiver (internal/verifier/memo). The replay cache's soundness
//     reduces to "equal key implies equal input closure", which only holds
//     when keys are content addresses — raw advice bytes used as key
//     material let the server steer which cached effect set a group
//     replays. The clamp for key material is a cryptographic digest:
//     sha256.Sum256 or a digest*-named helper.
//
// Flows into a callee whose parameter reaches one of these sinks unclamped
// (dataflow.Summary.ParamToSink) are reported at the call site. The
// analysis is flow-approximate — source-order replay, calls the graph
// cannot resolve launder — as documented in DESIGN.md §17. The escape hatch
// is //karousos:advicetaint-ok <reason>.
package advicetaint

import (
	"go/ast"
	"go/types"
	"strings"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/dataflow"
)

// Packages are the wire-decode packages whose functions are checked
// (findings are only reported here; taint summaries cover the whole
// program, so a flow that crosses into these packages from outside is
// still seen).
var Packages = []string{
	"internal/auditd",
	"internal/advice",
	"internal/value",
	"internal/trace",
	"internal/epochlog",
	"internal/collectorhttp",
	"internal/verifier",
}

// MaxConstBound is the largest constant a comparison may clamp to and
// still count as a sanitizer.
const MaxConstBound = 1 << 20

// IsSanitizerName reports whether a called function's bare name counts as
// a clamp: its call clamps a length argument, or its result is already
// clamped.
func IsSanitizerName(name string) bool {
	switch name {
	case "length", "lengthElems", "CheckAdviceBytes":
		return true
	}
	return strings.HasPrefix(name, "clamp")
}

// IsSourceCall reports whether call produces an attacker-chosen number: a
// raw wire read (binary.Uvarint / ReadUvarint / ByteOrder UintNN) or a
// decoder helper named uvarint/intv.
func IsSourceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	// Package-level binary.Uvarint / binary.ReadUvarint / binary.Varint...
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path() == "encoding/binary" &&
				(name == "Uvarint" || name == "Varint" || name == "ReadUvarint" || name == "ReadVarint")
		}
	}
	// ByteOrder reads: binary.LittleEndian.Uint32(...), order.Uint64(...).
	if name == "Uint16" || name == "Uint32" || name == "Uint64" {
		if t := info.TypeOf(sel.X); t != nil && strings.Contains(t.String(), "encoding/binary.") {
			return true
		}
	}
	// Decoder helpers: d.uvarint(), d.intv().
	return name == "uvarint" || name == "intv"
}

// Analyzer is the advicetaint pass.
var Analyzer = &analysis.Analyzer{
	Name: "advicetaint",
	Doc: "interprocedural advice-taint: decode-derived values must pass a clamp before any allocation size, " +
		"loop bound, file path, verdict-affecting branch, or memo-cache key, across function boundaries; " +
		"suppress with //karousos:advicetaint-ok <reason>",
	Run: run,
}

func init() { analysis.Register(Analyzer) }

func run(pass *analysis.Pass) error {
	if !analysis.PkgInScope(pass.Pkg.Path(), Packages) {
		return nil
	}
	prog := pass.SingletonProgram()
	eng := engineOf(prog)
	pp := prog.PackageOf(pass.Pkg)
	if pp == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, fnd := range eng.Check(pp, fd) {
				switch {
				case fnd.Callee != "":
					pass.Reportf(fnd.Pos, "passes an unclamped advice-derived value to %s, where it reaches an allocation, loop, path, verdict, or cache-key sink; clamp before the call", fnd.Callee)
				case fnd.What == "memo cache key":
					pass.Reportf(fnd.Pos, "memo cache key driven by a raw advice-derived value; content-address it through a digest (sha256.Sum256 or a digest* helper) first")
				default:
					pass.Reportf(fnd.Pos, "%s driven by an unclamped advice-derived value; clamp it against remaining input or verifier.Limits first", fnd.What)
				}
			}
		}
	}
	return nil
}

// engineOf builds (once per program, shared across packages via the
// program fact cache) the dataflow engine with the advice-taint policy.
func engineOf(prog *analysis.Program) *dataflow.Engine {
	return prog.Fact("advicetaint.engine", func() any {
		return dataflow.New(prog, dataflow.Policy{
			IsSource:        IsSourceCall,
			IsSanitizer:     isSanitizerCall,
			CallSinks:       callSinks,
			SanitizeCompare: true,
			MaxConstBound:   MaxConstBound,
			LoopBound:       "loop bound",
			Branch:          verdictBranch,
		})
	}).(*dataflow.Engine)
}

// isSanitizerCall applies the clamp-name policy to a call, plus
// the digest convention for memo-key material: a value that has passed
// through sha256.Sum256 (or a digest*-named helper) is a content address,
// not an attacker-steerable index.
func isSanitizerCall(info *types.Info, call *ast.CallExpr) bool {
	name := bareName(call)
	return IsSanitizerName(name) || name == "Sum256" || strings.HasPrefix(name, "digest")
}

// bareName is the called function's unqualified name ("" when the callee
// is not a plain identifier or selector).
func bareName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// pathSinkFuncs are the os functions whose first argument is a file path.
var pathSinkFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true,
	"ReadFile": true, "WriteFile": true,
	"Remove": true, "RemoveAll": true, "MkdirAll": true, "Mkdir": true,
}

// callSinks returns the sensitive argument positions of call: allocation
// sizes, memo-cache keys, and file paths.
func callSinks(info *types.Info, call *ast.CallExpr) []dataflow.Sink {
	// make(T, n[, c]): every size argument.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
			var sinks []dataflow.Sink
			for _, sizeArg := range call.Args[1:] {
				sinks = append(sinks, dataflow.Sink{Expr: sizeArg, What: "make size"})
			}
			return sinks
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Memo-cache indexing: the key argument of Probe/Insert on a Cache
	// receiver must be digest-derived, never raw advice bytes — a
	// server-chosen key could address a cached effect set directly.
	if (sel.Sel.Name == "Probe" || sel.Sel.Name == "Insert") && len(call.Args) > 0 {
		if t := info.TypeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Cache" {
				return []dataflow.Sink{{Expr: call.Args[0], What: "memo cache key"}}
			}
		}
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	switch pn.Imported().Path() {
	case "io":
		switch sel.Sel.Name {
		case "ReadFull":
			if len(call.Args) == 2 {
				return []dataflow.Sink{{Expr: call.Args[1], What: "io.ReadFull buffer"}}
			}
		case "ReadAtLeast", "CopyN":
			if len(call.Args) == 3 {
				return []dataflow.Sink{{Expr: call.Args[2], What: "io." + sel.Sel.Name + " size"}}
			}
		}
	case "os":
		if pathSinkFuncs[sel.Sel.Name] && len(call.Args) > 0 {
			return []dataflow.Sink{{Expr: call.Args[0], What: "os." + sel.Sel.Name + " path"}}
		}
	}
	return nil
}

// verdictBranch nominates if-statements that accept on advice: the
// condition is an equality or boolean test, and the guarded body returns a
// value of a type named Verdict. RejectCode returns are not sinks —
// rejecting raw advice is validation, accepting it is the hazard.
func verdictBranch(info *types.Info, ifStmt *ast.IfStmt) string {
	switch c := ast.Unparen(ifStmt.Cond).(type) {
	case *ast.BinaryExpr:
		if c.Op.String() != "==" && c.Op.String() != "!=" {
			return ""
		}
		// Nil tests (`if err != nil`) check presence, not an advice-chosen
		// value; decode errors carry spread taint but are not steering.
		for _, e := range []ast.Expr{c.X, c.Y} {
			if tv, ok := info.Types[e]; ok && tv.IsNil() {
				return ""
			}
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr, *ast.UnaryExpr:
		// boolean test
	default:
		return ""
	}
	found := ""
	ast.Inspect(ifStmt.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if named, ok := info.TypeOf(r).(*types.Named); ok && named.Obj().Name() == "Verdict" {
				found = "verdict-affecting branch"
				return false
			}
		}
		return true
	})
	return found
}
