package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// Lockguard enforces annotation-declared lock discipline: a struct field
// carrying a `// guarded by <mu>` comment may only be read or written while
// the named sibling mutex is held on the same receiver chain.
//
// One syntactic shape holds a lock: `x.mu.Lock()` followed at once by
// `defer x.mu.Unlock()` (`RLock` with `RUnlock`), both at the top level of
// a function body; the lock is held from there to the end of the function.
// A lock is identified by the source spelling of its receiver chain
// (`j.mu`). Every other Lock, RLock, Unlock or RUnlock call on a
// sync.Mutex/RWMutex is itself a finding: a hand-released lock, a pair
// inside a branch or loop, an explicit unlock of a lock the function holds
// by defer. Function literals inherit the enclosing lock set (they run on
// the caller's stack in every in-repo use: sort.Slice comparators, Range
// callbacks), except those started by `go` or `defer`, which hold nothing
// of their caller's. A function whose name ends in "Locked" is entitled to
// its receiver's guarded fields: its contract says the caller holds them.
//
// Composite-literal field keys (`&Job{state: StateQueued}`) are not
// accesses: construction happens before the value is shared. Aliasing
// (`k := j; k.state`) is invisible and reports as unguarded. There is no
// suppression: an access the analyzer cannot prove is restructured until
// it can (take the lock, or move the access into a *Locked function).
var Lockguard = &Analyzer{
	Name: "lockguard",
	Run:  runLockguard,
}

func runLockguard(pass *Pass) error {
	c := &lockChecker{pass: pass, guards: collectGuards(pass)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.recv = ""
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				c.recv = receiverName(fn)
			}
			c.walk(fn.Body, nil)
		}
	}
	return nil
}

// collectGuards scans struct types (named or anonymous) for
// `// guarded by <mu>` field comments, returning field object → guard
// (the sibling field's name, "mu"). A guard that does not name a sibling
// mutex field is itself reported — a typo'd annotation must not silently
// disable the check.
func collectGuards(pass *Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				guard, ok := fieldGuard(field)
				if !ok {
					continue
				}
				if !hasMutexSibling(pass, st, guard) {
					pass.Reportf(field.Pos(),
						"`// guarded by %s` names no sibling sync.Mutex/RWMutex field", guard)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard
					}
				}
			}
			return true
		})
	}
	return guards
}

// fieldGuard extracts a guard directive from the field's doc or line
// comments.
func fieldGuard(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if guard, ok := parseGuardDirective(c.Text); ok {
				return guard, true
			}
		}
	}
	return "", false
}

func hasMutexSibling(pass *Pass, st *ast.StructType, guard string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guard {
				continue
			}
			if obj := pass.TypesInfo.Defs[name]; obj != nil && isMutexType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// lockSet maps a held lock ("j.mu") to the position its pair starts at;
// accesses after that position are guarded by it.
type lockSet map[string]token.Pos

type lockChecker struct {
	pass   *Pass
	guards map[types.Object]string
	recv   string // receiver of the *Locked function being checked, if any
}

// walk checks one function body that starts out holding inherited.
func (c *lockChecker) walk(body *ast.BlockStmt, inherited lockSet) {
	held := lockSet{}
	maps.Copy(held, inherited)
	paired := map[*ast.CallExpr]bool{}
	for i := 0; i+1 < len(body.List); i++ {
		if mu, lock, unlock := c.pairAt(body.List[i], body.List[i+1]); lock != nil {
			held[mu] = lock.Pos()
			paired[lock], paired[unlock] = true, true
		}
	}
	cold := map[*ast.FuncLit]bool{} // started by go or defer: nothing held
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			cold[asFuncLit(n.Call.Fun)] = true
		case *ast.DeferStmt:
			cold[asFuncLit(n.Call.Fun)] = true
		case *ast.FuncLit:
			if cold[n] {
				c.walk(n.Body, nil)
			} else {
				c.walk(n.Body, held)
			}
			return false
		case *ast.CallExpr:
			if name, _ := c.lockMethod(n); name != "" && !paired[n] {
				c.pass.Reportf(n.Pos(),
					"%s is outside the lock shape: `x.mu.Lock()` then at once `defer x.mu.Unlock()`, "+
						"at the top level of a function body", types.ExprString(n))
			}
		case *ast.SelectorExpr:
			c.access(n, held)
		}
		return true
	})
}

// pairAt returns the mutex, the Lock/RLock call of a and the
// Unlock/RUnlock call deferred by b when the two statements form the lock
// shape on one mutex; lock is nil otherwise.
func (c *lockChecker) pairAt(a, b ast.Stmt) (mu string, lock, unlock *ast.CallExpr) {
	es, ok := a.(*ast.ExprStmt)
	ds, ok2 := b.(*ast.DeferStmt)
	if !ok || !ok2 {
		return "", nil, nil
	}
	if lock, _ = es.X.(*ast.CallExpr); lock == nil {
		return "", nil, nil
	}
	name, mu := c.lockMethod(lock)
	uname, umu := c.lockMethod(ds.Call)
	if (name == "Lock" && uname == "Unlock" || name == "RLock" && uname == "RUnlock") && mu == umu {
		return mu, lock, ds.Call
	}
	return "", nil, nil
}

// lockMethod returns the method name and rendered receiver ("j.mu") of a
// Lock/RLock/Unlock/RUnlock call on a sync mutex, or "" for any other call.
func (c *lockChecker) lockMethod(call *ast.CallExpr) (name, mu string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if !isMutexType(c.pass.TypesInfo.TypeOf(sel.X)) {
		return "", ""
	}
	return sel.Sel.Name, types.ExprString(sel.X)
}

// access reports a guarded-field access made without its guard.
func (c *lockChecker) access(sel *ast.SelectorExpr, held lockSet) {
	guard, ok := c.guards[c.pass.TypesInfo.Uses[sel.Sel]]
	if !ok {
		return
	}
	base := types.ExprString(sel.X)
	if at, ok := held[base+"."+guard]; ok && sel.Pos() > at {
		return
	}
	if c.recv != "" && base == c.recv {
		return
	}
	c.pass.Reportf(sel.Pos(),
		"%s.%s is guarded by %s.%s, which is not held here "+
			"(lock it, or use a *Locked caller-holds function)",
		base, sel.Sel.Name, base, guard)
}

func asFuncLit(e ast.Expr) *ast.FuncLit {
	lit, _ := e.(*ast.FuncLit)
	return lit
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

func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}
