// Package fixture plants baselab violations: a model that reaches for the
// base laboratory or the base roadmap itself instead of taking it as an
// argument.
package fixture

import (
	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/netlist"
)

// A model computing at base parameters behind its caller's back.
func hiddenLab(nodeNM int) (*netlist.Tech, error) {
	return netlist.NewTechIn(device.BaseLab(), nodeNM, 0) // want "device.BaseLab referenced outside the scenario edge"
}

// The base roadmap is a root too.
func hiddenTable() []int {
	return itrs.Base().NodesNM() // want "itrs.Base referenced outside the scenario edge"
}

// A function value is a reference, not only a call.
var labRoot = device.BaseLab // want "device.BaseLab referenced outside the scenario edge"

// The allowed shape: the lab is an argument, so the caller picks the
// scenario.
func threaded(lab *device.Lab, nodeNM int) (*netlist.Tech, error) {
	if _, err := lab.Table().ByNode(nodeNM); err != nil {
		return nil, err
	}
	return netlist.NewTechIn(lab, nodeNM, 0)
}
