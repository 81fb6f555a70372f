package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Lockguard enforces annotation-declared lock discipline: a struct field
// carrying a `// guarded by <mu>` comment may only be read or written while
// the named sibling mutex is held on the same receiver chain. Holding is
// established intra-procedurally by the facts walker in facts.go
// (`x.mu.Lock()` … `x.mu.Unlock()`, with `defer x.mu.Unlock()` holding to
// exit), or by the repo's caller-holds convention: a function whose name
// ends in "Locked" is entitled to its receiver's guarded fields — its
// contract says the caller already locked.
//
// Composite-literal field keys (`&Job{state: StateQueued}`) are not
// accesses: construction happens before the value is shared. There is no
// suppression: an access the analyzer cannot prove is restructured until
// it can (take the lock, or move the access into a *Locked function).
var Lockguard = &Analyzer{
	Name: "lockguard",
	Run:  runLockguard,
}

// guardedField records the guard declared for one struct field.
type guardedField struct {
	guard string // sibling field name ("mu")
	owner string // struct description for messages
}

func runLockguard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncLocks(pass, guards, fn)
		}
	}
	return nil
}

// collectGuards scans struct types (named or anonymous) for
// `// guarded by <mu>` field comments, returning field object → guard.
// A guard that does not name a sibling mutex field is itself reported —
// a typo'd annotation must not silently disable the check.
func collectGuards(pass *Pass) map[types.Object]guardedField {
	guards := map[types.Object]guardedField{}
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
						guards[obj] = guardedField{guard: guard}
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

// checkFuncLocks walks one function with lock-held tracking and reports
// guarded-field accesses made without the guard.
func checkFuncLocks(pass *Pass, guards map[types.Object]guardedField, fn *ast.FuncDecl) {
	callerHolds := strings.HasSuffix(fn.Name.Name, "Locked")
	recv := receiverName(fn)
	w := &lockWalker{
		pass: pass,
		access: func(sel *ast.SelectorExpr, held lockSet) {
			obj := pass.TypesInfo.Uses[sel.Sel]
			gf, ok := guards[obj]
			if !ok {
				return
			}
			base := types.ExprString(sel.X)
			if held[base+"."+gf.guard] {
				return
			}
			if callerHolds && recv != "" && base == recv {
				return
			}
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %s.%s, which is not held here "+
					"(lock it, or use a *Locked caller-holds function)",
				base, sel.Sel.Name, base, gf.guard)
		},
	}
	w.walkBody(fn.Body)
}

func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}
