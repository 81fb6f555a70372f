package analyzers

import (
	"go/ast"
	"go/types"
)

// Detrange guards the golden-byte determinism of every output-producing
// package: Go map iteration order is deliberately randomized, so a `range`
// over a map anywhere on a path that renders bytes (text/JSON/CSV
// encoders, the metrics registry, HTTP responses) can scramble output
// between runs — exactly the class of bug the jobs=1-vs-8 golden tests
// exist to catch, moved to compile time.
//
// The one iteration shape that is deterministic by construction is
// collect-then-sort: a loop whose body only appends the keys to a slice
// that the same function later sorts. That shape is recognized and
// allowed; everything else needs a `//lint:allow detrange <reason>`.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc: "flags range over a map in output-producing packages unless the " +
		"keys are collected into a slice that is demonstrably sorted afterwards",
	Scope: DetrangeScope,
	Run:   runDetrange,
}

// DetrangeScope is the set of packages whose bytes reach users: the
// encoders, the typed result layer, the artifact registry, the HTTP
// daemon, and the metrics registry. cmd/nanolint applies detrange to
// these; the other analyzers run everywhere.
var DetrangeScope = []string{
	"nanometer/internal/render",
	"nanometer/internal/result",
	"nanometer/internal/repro",
	"nanometer/internal/serve",
	"nanometer/internal/obs",
}

func runDetrange(pass *Pass) error {
	for _, file := range pass.Files {
		// Walk with an explicit stack of enclosing function bodies so a
		// flagged loop can be matched against sort calls in its function.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedCollectLoop(pass, rs, enclosingFuncBody(stack)) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s in an output-producing package: "+
				"iteration order is randomized; collect the keys, sort them, and index "+
				"the map (or annotate //lint:allow detrange <reason> if order provably "+
				"cannot reach any output)", types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function (decl or
// literal) on the stack, excluding the node itself at the top.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// sortedCollectLoop recognizes the canonical deterministic map-iteration
// idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)            // or sort.Slice/sort.Sort/slices.Sort*
//
// The loop body must be exactly one append of the key into a plain
// variable, the value must be unused, and the same enclosing function must
// sort that variable somewhere after the loop.
func sortedCollectLoop(pass *Pass, rs *ast.RangeStmt, body *ast.BlockStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dest, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if arg0, ok := call.Args[0].(*ast.Ident); !ok || arg0.Name != dest.Name {
		return false
	}
	if arg1, ok := call.Args[1].(*ast.Ident); !ok || arg1.Name != key.Name {
		return false
	}
	if body == nil {
		return false
	}
	destObj := pass.TypesInfo.ObjectOf(dest)
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted || call.Pos() <= rs.End() {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if pkg.Name != "sort" && pkg.Name != "slices" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok &&
			pass.TypesInfo.ObjectOf(arg) == destObj && destObj != nil {
			sorted = true
		}
		return !sorted
	})
	return sorted
}
