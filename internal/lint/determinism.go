package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the index-determinism invariant (DESIGN.md) in
// the packages whose output must be byte-identical across reruns,
// worker counts and GOMAXPROCS settings: no wall clock, no global RNG,
// and no map-iteration order reaching an output.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: `forbid nondeterminism sources in the determinism-critical packages
(internal/analysis, internal/webworld, internal/chaos, internal/crawler,
internal/dataset, internal/obs, internal/durable, internal/orchestrator,
internal/fsck): time.Now and time.Since
read the wall clock; global math/rand functions draw from a process-wide
unseeded source; ranging over a map while appending to a slice (without
sorting it afterwards) or while writing output bakes random iteration
order into the result.`,
	AppliesTo: inPackages(
		"internal/analysis",
		"internal/webworld",
		"internal/chaos",
		"internal/crawler",
		"internal/dataset",
		"internal/obs",
		// The durable journal and the orchestrator merge both promise
		// byte-identical artifacts (replay-stable journals, shard-count
		// invariant merged reports), so their code paths must not read
		// wall clocks or leak map order either.
		"internal/durable",
		"internal/orchestrator",
		// The repair path promises recrawls byte-identical to the damaged
		// originals — fully seeded, no wall clock.
		"internal/fsck",
	),
	Run: runDeterminism,
}

// randConstructors are the caller-seeded entry points of math/rand and
// math/rand/v2; everything else at package level draws from the shared
// global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) {
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name, pkgLevel, ok := funcOf(pass.TypesInfo, sel)
		if !ok || !pkgLevel {
			return true
		}
		switch {
		case pkgPath == "time" && (name == "Now" || name == "Since"):
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock, breaking the index-determinism invariant; thread a vclock.Clock or an injected Now func through the config", name)
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
			pass.Reportf(sel.Pos(),
				"global rand.%s draws from the process-wide unseeded source; use a rand.New(rand.NewPCG(seed, ...)) instance derived from the campaign seed", name)
		}
		return true
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkMapRanges flags `range m` loops (m a map) whose body feeds an
// order-sensitive sink: a direct write (io.Writer / fmt output) is
// always flagged; an append to a slice is flagged unless the slice is
// sorted later in the same function.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		var appended []appendTarget
		stop := false
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			if stop {
				return false
			}
			if inner, ok := m.(*ast.RangeStmt); ok && inner != rs {
				// A nested map-range reports on its own.
				if itv, ok := pass.TypesInfo.Types[inner.X]; ok && itv.Type != nil {
					if _, isMap := itv.Type.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
			switch m := m.(type) {
			case *ast.CallExpr:
				if sink, what := outputSink(pass.TypesInfo, m); sink {
					pass.Reportf(rs.Pos(),
						"range over map %s %s inside the loop: map order is random per process, so the output order is too; collect, sort, then emit", ExprString(rs.X), what)
					stop = true
					return false
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass.TypesInfo, call) && i < len(m.Lhs) {
						if obj := rootObject(pass.TypesInfo, m.Lhs[i]); obj != nil {
							appended = append(appended, appendTarget{
								obj:  obj,
								base: baseObject(pass.TypesInfo, m.Lhs[i]),
								name: ExprString(m.Lhs[i]),
							})
						}
					}
				}
			}
			return true
		})
		if stop {
			return true
		}
		for _, tgt := range appended {
			if !sortedAfter(pass, body, rs, tgt) {
				pass.Reportf(rs.Pos(),
					"range over map %s appends to %s, which is never sorted afterwards in this function: map order is random per process; sort %s (or range over sorted keys) before it is used", ExprString(rs.X), tgt.name, tgt.name)
			}
		}
		return true
	})
}

// outputSink reports whether call writes somewhere order-sensitive: the
// fmt print family, io.WriteString, or any Write*/Print* method (which
// covers io.Writer, bufio.Writer, strings.Builder, tabwriter, ...).
func outputSink(info *types.Info, call *ast.CallExpr) (bool, string) {
	if pkgPath, name, pkgLevel, ok := funcOf(info, call.Fun); ok {
		if pkgLevel {
			switch {
			case pkgPath == "fmt" && strings.HasPrefix(name, "Print"),
				pkgPath == "fmt" && strings.HasPrefix(name, "Fprint"),
				pkgPath == "io" && name == "WriteString":
				return true, "feeds " + pkgPath + "." + name + " output"
			}
			return false, ""
		}
		if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print") {
			return true, "writes via " + name
		}
	}
	return false, ""
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// rootObject resolves the variable at the base of an lvalue: out,
// s.items, out[i] all root at their leftmost identifier's object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil {
				return obj
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// An appendTarget remembers one slice appended to inside a map range:
// the resolved object (the field for s.Rows), the base variable (s),
// and the source text for the message.
type appendTarget struct {
	obj  types.Object
	base types.Object
	name string
}

// sortNames are the sort/slices entry points that impose a total order.
var sortNames = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true,
	"Float64s": true, "Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
}

// isSortCall recognizes both the sort/slices standard entry points and
// repo-local helpers whose name says they sort (sortFigure3, sortRows,
// ...): the "intervening sort" that launders map order back into a
// deterministic one.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	pkgPath, name, pkgLevel, ok := funcOf(info, call.Fun)
	if !ok {
		return false
	}
	if pkgLevel && (pkgPath == "sort" || pkgPath == "slices") && sortNames[name] {
		return true
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// sortedAfter reports whether, lexically after the range statement and
// within the same function body, the appended slice (or its base
// variable) reaches a sorting call.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, tgt appendTarget) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(pass.TypesInfo, call) {
			return true
		}
		ast.Inspect(call, func(a ast.Node) bool {
			id, ok := a.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil && (obj == tgt.obj || (tgt.base != nil && obj == tgt.base)) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// baseObject resolves the leftmost identifier of an lvalue chain: the
// receiver f in f.Rows, the slice out in out[i].
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
