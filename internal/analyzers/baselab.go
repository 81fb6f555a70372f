package analyzers

import (
	"go/ast"
	"go/types"
)

// Baselab keeps the base ITRS-2000 laboratory at the scenario edge. Every
// model takes its *device.Lab (or *itrs.Table) as an argument, so the only
// way a scenario run can silently compute at base parameters is a model
// reaching for device.BaseLab or itrs.Base itself. This analyzer makes that
// a static error: outside the packages that define the two roots and the
// few that pick the base roadmap on purpose, any reference is flagged.
//
// Allowed: device and itrs (they define them), scenario (the nil-scenario
// default in Resolve), trace (traces are base-roadmap by design and
// -trace refuses -scenario), and the nanobench module, whose probes pin
// base parameters on purpose.
var Baselab = &Analyzer{
	Name: "baselab",
	Doc: "flags references to device.BaseLab and itrs.Base outside the " +
		"scenario edge: models take the lab or table as an argument",
	Run: runBaselab,
}

// baselabRoots maps package import path → the base-roadmap root it
// exports.
var baselabRoots = map[string]string{
	"nanometer/internal/device": "BaseLab",
	"nanometer/internal/itrs":   "Base",
}

// baselabAllowed lists the packages that may reference the roots.
var baselabAllowed = map[string]bool{
	"nanometer/internal/device":   true,
	"nanometer/internal/itrs":     true,
	"nanometer/internal/scenario": true,
	"nanometer/internal/trace":    true,
	"nanometer/cmd/nanobench":     true,
}

func runBaselab(pass *Pass) error {
	if baselabAllowed[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || baselabRoots[fn.Pkg().Path()] != fn.Name() {
				return true
			}
			if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
				return true // a method of the same name is not the root
			}
			pass.Reportf(id.Pos(),
				"%s.%s referenced outside the scenario edge: take the lab or "+
					"table as an argument so a scenario is never computed at "+
					"base parameters", fn.Pkg().Name(), fn.Name())
			return true
		})
	}
	return nil
}
