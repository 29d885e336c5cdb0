package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Locks enforces mutex discipline in the concurrent serving and
// aggregation packages (internal/obs, internal/webserver,
// internal/orchestrator):
//
//   - a Lock/RLock must be released on every return path of the
//     function — either by an immediately-following defer Unlock, or by
//     an explicit Unlock before each return (a leaked lock deadlocks
//     the next request, which under load means the whole serving pool);
//   - no blocking call while a lock is held: channel operations,
//     select without default, WaitGroup.Wait, process waits
//     (os/exec), HTTP round-trips, virtual-clock waits
//     (vclock Sleep/Wait/Poll), or writes through an *interface*
//     writer (the concrete sink behind an io.Writer may be a socket
//     or file; writing to it serializes every other lock holder
//     behind kernel I/O). Writes to concrete in-memory sinks
//     (strings.Builder, bytes.Buffer) are fine and not flagged;
//   - no writes under an RLock: mutating a field or map of the
//     structure whose RWMutex is read-held is a data race the race
//     detector only catches when two writers collide in the same run.
//
// The analysis is a lightweight lexical walk per function: a lock
// region opens at x.Lock()/x.RLock() and closes at the matching
// x.Unlock()/x.RUnlock() in the same or a nested block, or at a defer
// of it. It does not model aliasing (the receiver expression's root
// variable is the lock identity), which is exactly the discipline the
// repo's code follows.
var Locks = &Analyzer{
	Name: "locks",
	Doc: `enforce mutex discipline in internal/obs, internal/webserver,
internal/orchestrator: every Lock/RLock released on every return path
(defer or explicit), no blocking calls (channel ops, selects,
WaitGroup.Wait, exec waits, HTTP round-trips, vclock waits,
interface-writer I/O) while a lock is held, and no writes to the
guarded structure under an RLock.`,
	AppliesTo: inPackages(
		"internal/obs",
		"internal/webserver",
		"internal/orchestrator",
	),
	Run: runLocks,
}

// heldLock is one currently-held lock during the walk.
type heldLock struct {
	// key renders the receiver expression ("s.mu") for messages.
	key string
	// obj is the resolved receiver of the lock call, the identity
	// matched against Unlock calls (the mu field object for
	// s.mu.Lock()).
	obj types.Object
	// base is the leftmost variable of the receiver chain ("s" for
	// s.mu.Lock()): writes rooting at it while an RLock is held are the
	// read-path-write violation.
	base types.Object
	// read marks an RLock.
	read bool
	// deferred marks a lock whose Unlock is deferred: returns are fine,
	// but blocking-call and RLock-write checks still apply to the rest
	// of the function.
	deferred bool
	pos      token.Pos
}

func runLocks(pass *Pass) {
	eachFuncScope(pass, func(name string, node ast.Node, body *ast.BlockStmt) {
		w := &lockWalker{pass: pass, fname: name}
		held := w.walkStmts(body.List, nil)
		for _, h := range held {
			if !h.deferred {
				pass.Reportf(h.pos, "%s.%s is still held when %s falls off the end of the function; unlock it or defer the unlock",
					h.key, lockVerb(h.read), name)
			}
		}
	})
}

func lockVerb(read bool) string {
	if read {
		return "RLock()"
	}
	return "Lock()"
}

type lockWalker struct {
	pass  *Pass
	fname string
}

// walkStmts walks one statement sequence with the given held set and
// returns the held set at its fallthrough end. Branch bodies are
// walked recursively; a branch that terminates (returns) reports its
// own violations and contributes nothing to the fallthrough state.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = w.walkStmt(stmt, held)
	}
	return held
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	info := w.pass.TypesInfo
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, name, ok := syncLockCall(info, s.X); ok {
			switch name {
			case "Lock", "RLock":
				held = append(held, heldLock{
					key:  ExprString(recv),
					obj:  rootObject(info, recv),
					base: baseObject(info, recv),
					read: name == "RLock",
					pos:  s.Pos(),
				})
				return held
			case "Unlock", "RUnlock":
				return w.release(held, recv, name)
			}
		}
		w.checkUnderLocks(s, held)
	case *ast.DeferStmt:
		if recv, name, ok := syncLockCall(info, s.Call); ok && (name == "Unlock" || name == "RUnlock") {
			obj := rootObject(info, recv)
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].obj == obj && held[i].read == (name == "RUnlock") && !held[i].deferred {
					held[i].deferred = true
					return held
				}
			}
			return held
		}
		w.checkUnderLocks(s, held)
	case *ast.ReturnStmt:
		for _, h := range held {
			if !h.deferred {
				w.pass.Reportf(s.Pos(), "return while %s is held (locked at %s); unlock before returning or defer the unlock",
					h.key, w.pass.Fset.Position(h.pos))
			}
		}
		w.checkUnderLocks(s, held)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.checkUnderLocks(s.Cond, held)
		thenHeld := w.walkStmts(s.Body.List, cloneHeld(held))
		elseHeld := cloneHeld(held)
		if s.Else != nil {
			elseHeld = w.walkStmt(s.Else, elseHeld)
		}
		// Fallthrough state: a lock survives unless every
		// non-terminating branch released it.
		switch {
		case terminates(s.Body):
			return elseHeld
		case s.Else != nil && stmtTerminates(s.Else):
			return thenHeld
		default:
			return mergeHeld(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkStmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.RangeStmt:
		w.checkUnderLocks(s.X, held)
		w.walkStmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.SwitchStmt:
		w.walkBranches(caseBodies(s.Body), held)
		return held
	case *ast.TypeSwitchStmt:
		w.walkBranches(caseBodies(s.Body), held)
		return held
	case *ast.SelectStmt:
		if len(held) > 0 && !hasDefaultClause(s.Body) {
			w.reportBlocking(s.Pos(), "select without a default clause", held)
		}
		w.walkBranches(caseBodies(s.Body), held)
		return held
	case *ast.GoStmt:
		// The goroutine body is its own scope (eachFuncScope visits
		// it); launching does not block.
		return held
	case *ast.SendStmt:
		if len(held) > 0 {
			w.reportBlocking(s.Pos(), "channel send", held)
		}
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.LabeledStmt:
		w.checkUnderLocks(stmt, held)
	default:
		w.checkUnderLocks(stmt, held)
	}
	return held
}

func (w *lockWalker) walkBranches(bodies [][]ast.Stmt, held []heldLock) {
	for _, b := range bodies {
		w.walkStmts(b, cloneHeld(held))
	}
}

// release pops the innermost matching held lock.
func (w *lockWalker) release(held []heldLock, recv ast.Expr, name string) []heldLock {
	obj := rootObject(w.pass.TypesInfo, recv)
	read := name == "RUnlock"
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].obj == obj && held[i].read == read && !held[i].deferred {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// checkUnderLocks inspects one statement (or expression) for blocking
// calls and RLock-guarded writes while locks are held. Nested function
// literals are skipped: their bodies run later, not under this lock.
func (w *lockWalker) checkUnderLocks(n ast.Node, held []heldLock) {
	if len(held) == 0 || n == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				w.reportBlocking(m.Pos(), "channel receive", held)
			}
		case *ast.SendStmt:
			w.reportBlocking(m.Pos(), "channel send", held)
		case *ast.AssignStmt:
			w.checkRLockWrite(m.Lhs, m.Pos(), held)
		case *ast.IncDecStmt:
			w.checkRLockWrite([]ast.Expr{m.X}, m.Pos(), held)
		case *ast.CallExpr:
			if what, blocking := blockingCall(info, m); blocking {
				w.reportBlocking(m.Pos(), what, held)
			}
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "delete" && len(m.Args) > 0 {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					w.checkRLockWrite(m.Args[:1], m.Pos(), held)
				}
			}
		}
		return true
	})
}

// checkRLockWrite flags writes whose target roots at the base variable
// of a read-held RWMutex: s.pages[k] = v under s.pagesMu.RLock().
func (w *lockWalker) checkRLockWrite(targets []ast.Expr, pos token.Pos, held []heldLock) {
	info := w.pass.TypesInfo
	for _, h := range held {
		if !h.read || h.base == nil {
			continue
		}
		for _, t := range targets {
			// Only writes through the guarded structure count: a plain
			// local assignment is fine.
			if _, isIdent := ast.Unparen(t).(*ast.Ident); isIdent {
				continue
			}
			if base := baseObject(info, t); base != nil && base == h.base {
				w.pass.Reportf(pos, "write to %s while %s is only read-locked (RLock at %s); take the write lock",
					ExprString(t), h.key, w.pass.Fset.Position(h.pos))
			}
		}
	}
}

func (w *lockWalker) reportBlocking(pos token.Pos, what string, held []heldLock) {
	h := held[len(held)-1]
	w.pass.Reportf(pos, "%s while %s is held (locked at %s): a blocked holder stalls every other user of the lock",
		what, h.key, w.pass.Fset.Position(h.pos))
}

// syncLockCall matches x.Lock / x.RLock / x.Unlock / x.RUnlock calls on
// sync.Mutex / sync.RWMutex values (embedded lockers included) and
// returns the receiver expression and method name.
func syncLockCall(info *types.Info, e ast.Expr) (recv ast.Expr, name string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// blockingCall classifies calls that can block the calling goroutine.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	pkgPath, name, pkgLevel, ok := funcOf(info, call.Fun)
	if !ok {
		return "", false
	}
	if !pkgLevel {
		switch {
		case pkgPath == "sync" && name == "Wait":
			return "sync.WaitGroup.Wait", true
		case pkgPath == "os/exec" && (name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
			return "os/exec process wait (" + name + ")", true
		case pkgPath == "net/http" && (name == "Do" || name == "Get" || name == "Post" || name == "Head"):
			return "HTTP round-trip (" + name + ")", true
		case strings.HasSuffix(pkgPath, "internal/vclock") && (name == "Sleep" || name == "Wait" || name == "Poll" || name == "WaitUntil"):
			return "virtual-clock wait (vclock." + name + ")", true
		case pkgPath == "encoding/json" && name == "Encode":
			return "json.Encoder.Encode to the underlying writer", true
		case name == "Write" || name == "WriteString" || name == "ReadFrom":
			// Only interface-typed receivers: the concrete sink may be a
			// socket or file. strings.Builder & friends are concrete and
			// stay silent.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if t := info.Types[sel.X].Type; isInterfaceType(t) {
					return name + " on interface writer " + ExprString(sel.X), true
				}
			}
		}
		return "", false
	}
	switch {
	case pkgPath == "net/http" && (name == "Get" || name == "Post" || name == "Head" || name == "PostForm"):
		return "HTTP round-trip (http." + name + ")", true
	case pkgPath == "fmt" && strings.HasPrefix(name, "Fprint"):
		if len(call.Args) > 0 {
			if t := info.Types[call.Args[0]].Type; isInterfaceType(t) {
				return "fmt." + name + " to interface writer " + ExprString(call.Args[0]), true
			}
		}
	case strings.HasSuffix(pkgPath, "internal/vclock") && (name == "Sleep" || name == "Poll"):
		return "virtual-clock wait (vclock." + name + ")", true
	}
	return "", false
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// mergeHeld unions two branch outcomes: a lock counts as released only
// when both branches released it.
func mergeHeld(a, b []heldLock) []heldLock {
	out := cloneHeld(a)
	for _, h := range b {
		found := false
		for _, g := range out {
			if g.obj == h.obj && g.read == h.read && g.pos == h.pos {
				found = true
				break
			}
		}
		if !found {
			out = append(out, h)
		}
	}
	return out
}

// terminates reports whether a block always transfers control away
// (its last statement is a return or an unconditional panic).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return terminates(s.Body) && stmtTerminates(s.Else)
	}
	return false
}

func caseBodies(b *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, s := range b.List {
		switch c := s.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

func hasDefaultClause(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if c, ok := s.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}
