// Package experiments regenerates every table, figure, and quantified
// in-text claim of the paper from the model stack: one function per
// artifact, each building its typed result (internal/result) directly, so
// an artifact's computation and its output live in one place. Every
// artifact function takes the laboratory it computes on and the C8
// validation-mesh size, which only Bumps reads, so the reproduction
// registry (internal/repro) calls all of them the same way. Claims carry
// their measured quantities as named findings, which the paper checks and
// the test suite read by key.
package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/result"
)

// Table1 reproduces Table 1: recent published NMOS devices against ITRS
// projections, with the paper's take-away flags (no published sub-1 V device
// meets the Ion target; 70 nm-class devices at 1.2 V pay +78 % dynamic
// power vs the 0.9 V roadmap supply). Published devices are compared to the
// laboratory's supplies.
func Table1(lab *device.Lab, _ int) (*result.Result, error) {
	t := &result.Table{
		Title:   "Table 1. Recent NMOS device results, compared with ITRS projections",
		Headers: []string{"Ref", "node (nm)", "Tox (Å)", "Vdd (V)", "Ion (µA/µm)", "Ioff (nA/µm)", "sub-1V+Ion?", "Pdyn penalty"},
	}
	for _, d := range itrs.Table1Published() {
		label := fmt.Sprintf("%d", d.ITRSNodeNM)
		nearest := d.ITRSNodeNM
		if d.ITRSNodeNM == 0 {
			label = fmt.Sprintf("%d-%d", d.NodeRangeNM[0], d.NodeRangeNM[1])
			nearest = d.NodeRangeNM[1]
		}
		tox := fmt.Sprintf("%.0f", d.ToxAngstrom)
		if d.Electrical {
			tox += " (elec)"
		}
		// The dynamic-power penalty against the supply of the nearest node.
		pen := "-"
		if node, err := lab.Node(nearest); err == nil && node.Vdd < d.Vdd {
			if p := d.DynamicPowerPenalty(node.Vdd); p > 0 {
				pen = fmt.Sprintf("+%.0f%%", p*100)
			}
		}
		meets := "no"
		if d.MeetsITRSSub1V() {
			meets = "YES"
		}
		t.AddRow(d.Ref, label, tox, fmt.Sprintf("%.2f", d.Vdd),
			fmt.Sprintf("%.0f", d.IonUAPerUM), fmt.Sprintf("%.0f", d.IoffNAPerUM), meets, pen)
	}
	for _, r := range itrs.Table1ITRS() {
		t.AddRow("ITRS", fmt.Sprintf("%d", r.NodeNM),
			fmt.Sprintf("%.0f", (r.ToxAngstromLo+r.ToxAngstromHi)/2),
			fmt.Sprintf("%.2f", r.Vdd),
			fmt.Sprintf("%.0f", r.IonUAPerUM), fmt.Sprintf("%.0f", r.IoffNAPerUM), "-", "-")
	}
	t.Notes = append(t.Notes,
		"paper take-away: no published sub-1 V technology reaches the 750 µA/µm ITRS drive target",
		"running the 70 nm-class devices at their reported 1.2 V instead of 0.9 V costs +78 % dynamic power")
	res := &result.Result{}
	res.AddTable(t)
	return res, nil
}
