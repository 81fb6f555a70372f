package analyzers

import (
	"go/ast"
	"go/types"
)

// This file is the lightweight intra-procedural facts layer the lockguard
// analyzer builds on: a statement walker that tracks, at every expression
// it visits, which mutexes are provably held. "Provably" is deliberately
// syntactic — a lock is identified by the source spelling of its receiver
// chain (`j.mu`, `g.mu`), held from a `x.Lock()` / `x.RLock()`
// statement until a non-deferred `x.Unlock()` / `x.RUnlock()`, with
// `defer x.Unlock()` keeping it held to function exit. Control flow is
// handled conservatively:
//
//   - a branch that terminates (return / break / continue / panic) does not
//     leak its lock state into the code after the branch, so the common
//     fast-path shape `mu.Lock(); if ok { mu.Unlock(); return }; ...` keeps
//     the tail protected;
//   - a branch that falls through merges by intersection — any lock it
//     released is treated as released after the join;
//   - locks acquired inside a conditional branch or loop body never
//     escape it;
//   - function literals inherit the current lock set (they run on the
//     caller's stack in every in-repo use: sort.Slice comparators,
//     sync.Map Range callbacks) except when launched by `go` or `defer`,
//     which start from an empty set.
//
// Aliasing (`k := j; k.state`) is invisible to the tracker and reports as
// unguarded; that is the intended bias — re-spell the access through the
// locked receiver or annotate.

// lockSet maps the rendered lock expression ("j.mu") to held.
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// lockWalker walks one function body and invokes access for every
// selector expression visited, with the lock set held at that point.
type lockWalker struct {
	pass   *Pass
	access func(sel *ast.SelectorExpr, held lockSet)
}

func (w *lockWalker) walkBody(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	w.walkStmts(body.List, lockSet{})
}

// walkStmts processes statements in source order, mutating held.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held lockSet) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held lockSet) {
	switch s := stmt.(type) {
	case nil:
	case *ast.ExprStmt:
		w.walkExpr(s.X, held)
		w.applyLockEffect(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X, held)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held)
		w.walkExpr(s.Value, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, held)
		}
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the lock stays held
		// for the remainder of the body. A deferred literal starts cold —
		// by the time it runs, the locks of this frame may be gone.
		if w.lockEffectKind(s.Call) != 0 {
			return
		}
		w.walkCallParts(s.Call, held, lockSet{})
	case *ast.GoStmt:
		// Arguments are evaluated now (under the current locks); the
		// spawned body runs concurrently and starts with nothing held.
		w.walkCallParts(s.Call, held, lockSet{})
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkExpr(s.Cond, held)
		bodyHeld := held.clone()
		w.walkStmts(s.Body.List, bodyHeld)
		if !terminates(s.Body.List) {
			intersect(held, bodyHeld)
		}
		if s.Else != nil {
			elseHeld := held.clone()
			w.walkStmt(s.Else, elseHeld)
			if !stmtTerminates(s.Else) {
				intersect(held, elseHeld)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, held)
		}
		bodyHeld := held.clone()
		w.walkStmts(s.Body.List, bodyHeld)
		if s.Post != nil {
			w.walkStmt(s.Post, bodyHeld)
		}
		intersect(held, bodyHeld)
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		if s.Key != nil {
			w.walkExpr(s.Key, held)
		}
		if s.Value != nil {
			w.walkExpr(s.Value, held)
		}
		bodyHeld := held.clone()
		w.walkStmts(s.Body.List, bodyHeld)
		intersect(held, bodyHeld)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, held)
		}
		w.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held.clone())
		w.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, held)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.walkExpr(e, held)
		}
		w.walkStmts(s.Body, held)
	case *ast.CommClause:
		if s.Comm != nil {
			w.walkStmt(s.Comm, held)
		}
		w.walkStmts(s.Body, held)
	}
}

// walkClauses runs each case/comm clause on a copy of held and merges the
// fall-through clauses by intersection.
func (w *lockWalker) walkClauses(body *ast.BlockStmt, held lockSet) {
	merged := held.clone()
	for _, c := range body.List {
		clauseHeld := held.clone()
		w.walkStmt(c, clauseHeld)
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
		case *ast.CommClause:
			stmts = cc.Body
		}
		if !terminates(stmts) {
			intersect(merged, clauseHeld)
		}
	}
	intersect(held, merged)
}

// walkCallParts visits a go/defer call's function and arguments; litHeld is
// the lock set any function literal in the callee position starts with.
func (w *lockWalker) walkCallParts(call *ast.CallExpr, held, litHeld lockSet) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkStmts(lit.Body.List, litHeld)
	} else {
		w.walkExpr(call.Fun, held)
	}
	for _, a := range call.Args {
		w.walkExpr(a, held)
	}
}

// walkExpr visits an expression tree, reporting selector accesses and
// descending into function literals with the current lock set (synchronous
// callback assumption — go/defer literals are rerouted by walkStmt).
func (w *lockWalker) walkExpr(expr ast.Expr, held lockSet) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if w.access != nil {
				w.access(e, held)
			}
			return true
		case *ast.FuncLit:
			w.walkStmts(e.Body.List, held.clone())
			return false
		}
		return true
	})
}

// applyLockEffect mutates held for a statement-level Lock/Unlock call.
func (w *lockWalker) applyLockEffect(expr ast.Expr, held lockSet) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	switch kind, key := w.lockEffect(call); kind {
	case 1:
		held[key] = true
	case -1:
		delete(held, key)
	}
}

// lockEffect classifies a call: +1 Lock/RLock, -1 Unlock/RUnlock, 0 other.
// key is the rendered receiver expression ("j.mu").
func (w *lockWalker) lockEffect(call *ast.CallExpr) (kind int, key string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	default:
		return 0, ""
	}
	if !isMutexType(w.pass.TypesInfo.TypeOf(sel.X)) {
		return 0, ""
	}
	return kind, types.ExprString(sel.X)
}

func (w *lockWalker) lockEffectKind(call *ast.CallExpr) int {
	kind, _ := w.lockEffect(call)
	return kind
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// intersect drops from dst every lock that branch no longer holds.
func intersect(dst, branch lockSet) {
	for k := range dst {
		if !branch[k] {
			delete(dst, k)
		}
	}
}

// terminates reports whether control cannot fall off the end of stmts:
// the last statement returns, branches away, or panics.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body.List) && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}
