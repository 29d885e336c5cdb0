package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroleak requires every goroutine launched in the campaign-running
// packages (internal/crawler, internal/orchestrator) to have a
// reachable join in the same function. A crawl worker that
// nobody waits for outlives its campaign: it keeps a dataset journal,
// an engine pool or a shard checkpoint pinned while the next campaign
// starts, and across a long-running orchestrator the leaked goroutines
// accumulate until the process dies — precisely the failure the
// crash-safe resume work cannot paper over.
//
// Recognized joins, checked per `go` statement:
//
//   - WaitGroup: the goroutine body calls X.Done() (usually deferred)
//     and the launching function contains X.Wait() — including a Wait
//     inside a sibling goroutine of the same function (the
//     close-after-drain pattern);
//   - done-channel: the body closes or sends on a channel that the
//     launching function receives from, ranges over, or hands to a
//     callee (the reorder-buffer consumer pattern);
//
// A goroutine whose join genuinely lives elsewhere (a Handle.Wait
// method the caller invokes later) carries a
// //topicslint:ignore goroleak <reason> naming that contract.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: `require a same-function join for every goroutine launched in
internal/crawler, internal/orchestrator: a WaitGroup Done/Wait pair
or a done-channel the function observes (receive, range, or hand-off
to a callee). Fire-and-forget goroutines leak across campaigns;
externally-joined ones carry a justified //topicslint:ignore goroleak.`,
	AppliesTo: inPackages(
		"internal/crawler",
		"internal/orchestrator",
	),
	Run: runGoroleak,
}

func runGoroleak(pass *Pass) {
	decls := declaredFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroutines(pass, decls, fd.Name.Name, fd.Body)
		}
	}
}

// checkGoroutines inspects one function body (nested literals
// included — a `go` inside a worker closure still joins against the
// lexical function around it, which is the text the reader audits).
func checkGoroutines(pass *Pass, decls map[*types.Func]*ast.FuncDecl, fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		gb := goroutineBody(pass, decls, g)
		if gb == nil {
			pass.Reportf(g.Pos(),
				"goroutine body is not visible from this package (dynamic call); join it explicitly or launch through a supervised helper")
			return true
		}
		if joined, _ := goroutineJoined(pass, body, g, gb); !joined {
			pass.Reportf(g.Pos(),
				"goroutine launched in %s has no join in this function: no WaitGroup Done/Wait pair and no done-channel this function observes; a leaked goroutine outlives the campaign", fname)
		}
		return true
	})
}

// goroutineBody resolves the body the `go` statement runs: a function
// literal's block, or the declaration of an intra-package function.
func goroutineBody(pass *Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if callee := staticCallee(pass.TypesInfo, g.Call); callee != nil {
		if fd, ok := decls[callee]; ok && fd.Body != nil {
			return fd.Body
		}
	}
	return nil
}

// goroutineJoined decides whether the goroutine is joined in fn's
// body, and names the evidence.
func goroutineJoined(pass *Pass, fnBody *ast.BlockStmt, g *ast.GoStmt, gb *ast.BlockStmt) (bool, string) {
	info := pass.TypesInfo

	// WaitGroup join: Done in the body, Wait anywhere in the function.
	for _, obj := range methodReceivers(info, gb, "sync", "Done") {
		if len(methodReceiversOn(info, fnBody, "sync", "Wait", obj)) > 0 {
			return true, "WaitGroup " + obj.Name()
		}
	}

	// Done-channel join: the body closes or sends on a channel the
	// function observes.
	for _, ch := range channelsSignaled(info, gb) {
		if channelObserved(info, fnBody, g, ch) {
			return true, "channel " + ch.Name()
		}
	}
	return false, ""
}

// methodReceivers collects the root objects of receivers of pkg.name
// method calls under n ("wg" for wg.Done(), sync's Done).
func methodReceivers(info *types.Info, n ast.Node, pkgPath, name string) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
			return true
		}
		if obj := rootObject(info, sel.X); obj != nil && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// methodReceiversOn filters methodReceivers to calls on a specific
// object.
func methodReceiversOn(info *types.Info, n ast.Node, pkgPath, name string, want types.Object) []types.Object {
	var out []types.Object
	for _, obj := range methodReceivers(info, n, pkgPath, name) {
		if obj == want {
			out = append(out, obj)
		}
	}
	return out
}

// channelsSignaled collects channel-typed variables the goroutine body
// closes or sends on — its completion signals.
func channelsSignaled(info *types.Info, body *ast.BlockStmt) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if !isChannel(info, e) {
			return
		}
		if obj := rootObject(info, e); obj != nil && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			add(n.Chan)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					add(n.Args[0])
				}
			}
		}
		return true
	})
	return out
}

// channelObserved reports whether fnBody observes the channel outside
// the goroutine itself: a receive, a range, a select case, or passing
// it to a call (handing the join to a callee, the consume pattern).
func channelObserved(info *types.Info, fnBody *ast.BlockStmt, g *ast.GoStmt, ch types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == g {
			return !found && n != g
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && usesObject(info, n.X, ch) {
				found = true
			}
		case *ast.RangeStmt:
			if isChannel(info, n.X) && usesObject(info, n.X, ch) {
				found = true
			}
		case *ast.CallExpr:
			// close(ch) in the function is a signal, not an
			// observation; any other call taking ch hands the join on.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					return true
				}
			}
			for _, a := range n.Args {
				if usesObject(info, a, ch) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func usesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	return mentionsObject(info, e, obj, false)
}

func isChannel(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
