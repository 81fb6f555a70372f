package experiments

import (
	"fmt"

	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mathx"
	"nanometer/internal/powergrid"
	"nanometer/internal/result"
	"nanometer/internal/units"
)

// Figure1 reproduces the Pstatic/Pdynamic ratio of a fan-out-of-4 inverter
// with average wiring load at 85 °C, swept over switching activity, for the
// paper's three curves: 70 nm @0.9 V, 50 nm @0.7 V, 50 nm @0.6 V. The
// threshold at each (node, Vdd) point is the Table 2 solution (Ion target
// met at that supply), as in the paper's §3.1 setup.
func Figure1(lab *device.Lab, _ int) (*result.Result, error) {
	activities := mathx.Logspace(0.005, 0.5, 25)
	T := units.CelsiusToKelvin(85)
	fig := &result.Figure{
		Name:   "figure1",
		Title:  "Figure 1. Pstatic/Pdynamic for an FO4 inverter with average wiring load (85 °C)",
		XLabel: "switching activity factor",
		YLabel: "Pstatic / Pdynamic",
		LogX:   true, LogY: true,
	}
	for _, cs := range []struct {
		nodeNM int
		vdd    float64
	}{{70, 0.9}, {50, 0.7}, {50, 0.6}} {
		inv, err := gate.ReferenceInverterIn(lab, cs.nodeNM)
		if err != nil {
			return nil, err
		}
		node := lab.MustNode(cs.nodeNM)
		// Threshold re-solved for the case's supply (300 K convention).
		vth, err := inv.N.SolveVthForIon(node.IonTargetAPerM, cs.vdd, units.RoomTemperature)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure1 %dnm@%gV: %w", cs.nodeNM, cs.vdd, err)
		}
		g := inv.WithVth(vth)
		s := result.NewSeries(fmt.Sprintf("%dnm, Vdd=%.1fV", cs.nodeNM, cs.vdd), len(activities))
		for _, a := range activities {
			s.Add(a, g.StaticOverDynamic(a, node.ClockHz, cs.vdd, T))
		}
		fig.Series = append(fig.Series, s)
	}
	res := &result.Result{}
	res.AddFigure(fig)
	return res, nil
}

// figure2Row is one node of the dual-Vth scaling analysis; it feeds both
// Figure 2's table and its plot.
type figure2Row struct {
	nodeNM int
	// ionGainPct is the drive-current increase from a 100 mV threshold
	// reduction.
	ionGainPct float64
	// ioffX100mV is the off-current multiplier of that reduction
	// (≈15× throughout, set by the subthreshold swing).
	ioffX100mV float64
	// ioffXFor20PctIon is the off-current multiplier required for a 20 %
	// drive gain (the paper: 54× "today" falling to 7× at 35 nm).
	ioffXFor20PctIon float64
	// deltaVthFor20Pct is the corresponding threshold reduction (V).
	deltaVthFor20Pct float64
}

func figure2Rows(lab *device.Lab) ([]figure2Row, error) {
	var rows []figure2Row
	T := units.RoomTemperature
	for _, nm := range lab.NodesNM() {
		d, err := lab.ForNode(nm)
		if err != nil {
			return nil, err
		}
		node := lab.MustNode(nm)
		ionHigh := d.IonPerWidth(node.Vdd, T)
		low := d.WithVth(d.Vth0 - 0.1)
		gain := low.IonPerWidth(node.Vdd, T)/ionHigh - 1
		ioffX := low.IoffPerWidth(node.Vdd, T) / d.IoffPerWidth(node.Vdd, T)
		vth20, err := d.SolveVthForIon(1.2*ionHigh, node.Vdd, T)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure2 node %d: %w", nm, err)
		}
		ioffX20 := d.WithVth(vth20).IoffPerWidth(node.Vdd, T) / d.IoffPerWidth(node.Vdd, T)
		rows = append(rows, figure2Row{
			nodeNM:           nm,
			ionGainPct:       gain * 100,
			ioffX100mV:       ioffX,
			ioffXFor20PctIon: ioffX20,
			deltaVthFor20Pct: d.Vth0 - vth20,
		})
	}
	return rows, nil
}

// Figure2 reproduces the dual-Vth scaling figure, as a table and as
// plotting series.
func Figure2(lab *device.Lab, _ int) (*result.Result, error) {
	rows, err := figure2Rows(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "Figure 2 (as data). Dual-Vth scaling",
		Headers: []string{"node (nm)", "Ion gain @ -100mV Vth", "Ioff × @ -100mV", "Ioff × for +20% Ion", "ΔVth for +20% (mV)"},
	}
	gainS := result.NewSeries("Ion increase with 100 mV Vth reduction (%)", len(rows))
	penS := result.NewSeries("Ioff increase for +20% Ion (×, log)", len(rows))
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.nodeNM),
			fmt.Sprintf("%.1f%%", r.ionGainPct),
			fmt.Sprintf("%.1f", r.ioffX100mV),
			fmt.Sprintf("%.1f", r.ioffXFor20PctIon),
			fmt.Sprintf("%.0f", r.deltaVthFor20Pct*1e3))
		gainS.Add(float64(r.nodeNM), r.ionGainPct)
		penS.Add(float64(r.nodeNM), r.ioffXFor20PctIon)
	}
	t.Notes = append(t.Notes, "paper: Ioff penalty for +20% Ion falls from 54× \"today\" to 7× at 35 nm; 100 mV ⇒ ~15× Ioff throughout")
	res := &result.Result{}
	res.AddTable(t)
	res.AddFigure(&result.Figure{
		Name:   "figure2",
		Title:  "Figure 2. Dual-Vth scaling: drive gain and leakage penalty vs node",
		XLabel: "technology node (nm)",
		YLabel: "see series",
		Series: []result.Series{gainS, penS},
	})
	return res, nil
}

// figures3And4 evaluates the Vth-scaling policies at 35 nm across supplies:
// normalized delay (Figure 3) and Pdynamic/Pstatic at activity 0.1
// (Figure 4). Each figure's artifact re-runs the sweep (cheap), so neither
// depends on the other's completion.
func figures3And4(lab *device.Lab) (fig3, fig4 *result.Figure, err error) {
	vdds := mathx.Linspace(0.2, 0.6, 17)
	node := lab.MustNode(35)
	ex, err := core.NewExplorerIn(lab, 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		return nil, nil, err
	}
	fig3 = &result.Figure{
		Name:   "figure3",
		Title:  "Figure 3. Delay vs Vdd under Vth-scaling policies (35 nm, nominal Vdd = 0.6 V)",
		XLabel: "Vdd (V)", YLabel: "delay (normalized)",
	}
	fig4 = &result.Figure{
		Name:   "figure4",
		Title:  "Figure 4. Pdynamic/Pstatic vs Vdd (35 nm, switching activity 0.1)",
		XLabel: "Vdd (V)", YLabel: "Pdynamic / Pstatic", LogY: true,
	}
	for _, p := range core.Policies() {
		ops, err := ex.Sweep(p, vdds)
		if err != nil {
			return nil, nil, err
		}
		s3 := result.NewSeries(p.String(), len(ops))
		s4 := result.NewSeries(p.String(), len(ops))
		for _, op := range ops {
			s3.Add(op.Vdd, op.DelayNorm)
			s4.Add(op.Vdd, op.DynOverStatic)
		}
		fig3.Series = append(fig3.Series, s3)
		fig4.Series = append(fig4.Series, s4)
	}
	return fig3, fig4, nil
}

// Figure3 is delay vs Vdd under the Vth-scaling policies.
func Figure3(lab *device.Lab, _ int) (*result.Result, error) {
	fig3, _, err := figures3And4(lab)
	if err != nil {
		return nil, err
	}
	res := &result.Result{}
	res.AddFigure(fig3)
	return res, nil
}

// Figure4 is Pdynamic/Pstatic vs Vdd under the Vth-scaling policies.
func Figure4(lab *device.Lab, _ int) (*result.Result, error) {
	_, fig4, err := figures3And4(lab)
	if err != nil {
		return nil, err
	}
	res := &result.Result{}
	res.AddFigure(fig4)
	return res, nil
}

// figure5Row is one node of the IR-drop scaling analysis, under both bump
// plans; it feeds both Figure 5's table and its plot.
type figure5Row struct {
	nodeNM int
	// minPitchM and itrsPitchM are the two bump plans (m).
	minPitchM, itrsPitchM float64
	// The width-over-min fields are the required rail widths normalized to
	// minimum top-metal width under each plan (Figure 5's left axis).
	minWidthOverMin, itrsWidthOverMin float64
	// The routing fractions are the total top-level routing shares (right
	// axis).
	minRoutingFraction, itrsRoutingFraction float64
}

func figure5Rows(lab *device.Lab) ([]figure5Row, error) {
	var rows []figure5Row
	for _, nm := range lab.NodesNM() {
		node := lab.MustNode(nm)
		minSpec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
		itrsSpec := powergrid.DefaultSpec(node, node.EffectiveBumpPitchM())
		szMin, err := minSpec.SizeRails()
		if err != nil {
			return nil, err
		}
		szITRS, err := itrsSpec.SizeRails()
		if err != nil {
			return nil, err
		}
		rows = append(rows, figure5Row{
			nodeNM:              nm,
			minPitchM:           node.BumpPitchMinM,
			itrsPitchM:          node.EffectiveBumpPitchM(),
			minWidthOverMin:     szMin.WidthOverMin,
			itrsWidthOverMin:    szITRS.WidthOverMin,
			minRoutingFraction:  szMin.TotalRoutingFraction,
			itrsRoutingFraction: szITRS.TotalRoutingFraction,
		})
	}
	return rows, nil
}

// Figure5 reproduces the power-distribution scaling analysis, as a table
// and as plotting series.
func Figure5(lab *device.Lab, _ int) (*result.Result, error) {
	rows, err := figure5Rows(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "Figure 5 (as data). IR-drop scaling",
		Headers: []string{"node (nm)", "min pitch (µm)", "W/Wmin", "%routing", "ITRS pitch (µm)", "W/Wmin", "%routing"},
	}
	minW := result.NewSeries("min bump pitch: rail width / Wmin", len(rows))
	itrsW := result.NewSeries("ITRS bump count: rail width / Wmin", len(rows))
	minR := result.NewSeries("min pitch: % routing used", len(rows))
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.nodeNM),
			fmt.Sprintf("%.0f", r.minPitchM*1e6),
			fmt.Sprintf("%.1f", r.minWidthOverMin),
			fmt.Sprintf("%.1f%%", r.minRoutingFraction*100),
			fmt.Sprintf("%.0f", r.itrsPitchM*1e6),
			fmt.Sprintf("%.0f", r.itrsWidthOverMin),
			fmt.Sprintf("%.1f%%", r.itrsRoutingFraction*100))
		minW.Add(float64(r.nodeNM), r.minWidthOverMin)
		itrsW.Add(float64(r.nodeNM), r.itrsWidthOverMin)
		minR.Add(float64(r.nodeNM), r.minRoutingFraction*100)
	}
	t.Notes = append(t.Notes, "paper: 16× Wmin (<4% routing + 16% pads) at 35 nm minimum pitch; >2000× under ITRS bump counts")
	res := &result.Result{}
	res.AddTable(t)
	res.AddFigure(&result.Figure{
		Name:   "figure5",
		Title:  "Figure 5. IR-drop scaling: required rail width and routing resources",
		XLabel: "technology node (nm)",
		YLabel: "rail width / Wmin (log) ; % routing",
		LogY:   true,
		Series: []result.Series{minW, itrsW, minR},
	})
	return res, nil
}
