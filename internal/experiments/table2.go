package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/result"
	"nanometer/internal/units"
)

// paperTable2 holds the published Table 2 values keyed by node and supply.
var paperTable2 = map[string][3]float64{ // {Vth, Ioff nA/µm, Ioff metal gate}
	"180@1.8": {0.30, 3, 1},
	"130@1.5": {0.29, 4, 1.4},
	"100@1.2": {0.22, 26, 8.7},
	"70@0.9":  {0.14, 210, 55},
	"50@0.6":  {0.04, 3205, 666},
	"50@0.7":  {0.12, 432, 100},
	"35@0.6":  {0.11, 456, 103},
}

// Table2 reproduces the Ioff-scaling analysis with paper-vs-measured
// columns: for every node (and the 50 nm node again at 0.7 V), solve the
// threshold that meets the 750 µA/µm drive target from Eqs. 2–3, then
// evaluate Eq. 4 leakage for the poly-gate (electrical-oxide) and
// metal-gate device variants.
func Table2(lab *device.Lab, _ int) (*result.Result, error) {
	ref, err := lab.ForNode(180)
	if err != nil {
		return nil, err
	}
	coxeRef := ref.CoxElectrical()
	coxPhysRef := ref.CoxPhysical()
	t := &result.Table{
		Title: "Table 2. Analytical model results for Ioff scaling (Ion target 750 µA/µm, 300 K)",
		Headers: []string{"node", "Vdd", "Coxe(norm)", "Cox(phys)", "Vth req", "paper",
			"Ioff nA/µm", "paper", "Ioff MG", "paper", "ITRS Ioff"},
	}
	// firstIoff and lastIoff span the roadmap for the growth note.
	var firstIoff, lastIoff float64
	addRow := func(nodeNM int, vdd float64) error {
		d, err := lab.ForNode(nodeNM)
		if err != nil {
			return err
		}
		node := lab.MustNode(nodeNM)
		T := units.RoomTemperature
		vth, err := d.SolveVthForIon(node.IonTargetAPerM, vdd, T)
		if err != nil {
			return fmt.Errorf("experiments: table2 node %d: %w", nodeNM, err)
		}
		mg := d.MetalGate()
		vthMG, err := mg.SolveVthForIon(node.IonTargetAPerM, vdd, T)
		if err != nil {
			return fmt.Errorf("experiments: table2 metal-gate node %d: %w", nodeNM, err)
		}
		ioff := units.NAPerUMFromAmpsPerMeter(d.WithVth(vth).IoffPerWidth(vdd, T))
		if len(t.Rows) == 0 {
			firstIoff = ioff
		}
		lastIoff = ioff
		paper := paperTable2[fmt.Sprintf("%d@%.1f", nodeNM, vdd)]
		t.AddRow(
			fmt.Sprintf("%d", nodeNM),
			fmt.Sprintf("%.1f", vdd),
			fmt.Sprintf("%.2f", d.CoxElectrical()/coxeRef),
			fmt.Sprintf("%.2f", d.CoxPhysical()/coxPhysRef),
			fmt.Sprintf("%.3f", vth),
			paperCell(paper[0], "%.2f"),
			fmt.Sprintf("%.3g", ioff),
			paperCell(paper[1], "%.3g"),
			fmt.Sprintf("%.3g", units.NAPerUMFromAmpsPerMeter(mg.WithVth(vthMG).IoffPerWidth(vdd, T))),
			paperCell(paper[2], "%.3g"),
			fmt.Sprintf("%.0f", units.NAPerUMFromAmpsPerMeter(node.IoffITRSAPerM)),
		)
		return nil
	}
	for _, nm := range lab.NodesNM() {
		node := lab.MustNode(nm)
		if err := addRow(nm, node.Vdd); err != nil {
			return nil, err
		}
		if node.VddAlt != 0 {
			if err := addRow(nm, node.VddAlt); err != nil {
				return nil, err
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("model Ioff rises %.0f× across the roadmap (paper: 152×; ITRS: 23×)", lastIoff/firstIoff),
		"metal-gate analysis removes gate depletion: thinner electrical oxide → higher Vth at equal Ion → lower Ioff")
	res := &result.Result{}
	res.AddTable(t)
	return res, nil
}

func paperCell(v float64, format string) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
