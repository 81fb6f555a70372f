package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/repeater"
	"nanometer/internal/result"
	"nanometer/internal/signaling"
	"nanometer/internal/wire"
)

// signalingRow is one node of the C2 experiment: the repeated-CMOS global
// signaling census and the low-swing differential alternative.
type signalingRow struct {
	nodeNM int
	// repeaters and signalingPowerW come from the chip census (the paper:
	// ~10⁴ at 180 nm → ~10⁶ at 50 nm; >50 W in the nanometer regime).
	repeaters       int
	signalingPowerW float64
	// repeaterAreaFraction is the silicon the repeaters occupy.
	repeaterAreaFraction float64
	// diffEnergyRatio is differential-low-swing energy over full-swing on
	// the same route (the Alpha-style 10 % swing); diffPowerW the census
	// power if all repeated global wiring switched at that ratio.
	diffEnergyRatio float64
	diffPowerW      float64
	// diffTrackRatio is the routing-track cost of the differential pair
	// (shield-amortized, < 2).
	diffTrackRatio float64
	// diffSNR is the differential link's noise closure.
	diffSNR float64
	// peakCurrentRatio is the grid di/dt relief of the low-swing driver.
	peakCurrentRatio float64
	// scaledCycles and unscaledCycles are die-edge crossing times (global
	// clock cycles) on scaled vs unscaled top-level wiring — the premise
	// from [9] that unscaled wiring keeps ITRS clocks reachable.
	scaledCycles, unscaledCycles float64
}

func signalingRows(lab *device.Lab) ([]signalingRow, error) {
	var rows []signalingRow
	for _, nm := range lab.NodesNM() {
		node := lab.MustNode(nm)
		census, err := repeater.TakeCensusIn(lab, nm, repeater.CensusParams{})
		if err != nil {
			return nil, err
		}
		line, err := wire.ForNodeIn(lab.Table(), nm, wire.Global)
		if err != nil {
			return nil, err
		}
		length, err := wire.CrossChipLengthIn(lab.Table(), nm)
		if err != nil {
			return nil, err
		}
		cmp, err := signaling.Compare(line, length, node.Vdd, 0.10, signaling.DifferentialLowSwing)
		if err != nil {
			return nil, err
		}
		cf, err := repeater.EvaluateClockFeasibilityIn(lab, nm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, signalingRow{
			nodeNM:               nm,
			repeaters:            census.Repeaters,
			signalingPowerW:      census.SignalingPowerW,
			repeaterAreaFraction: census.RepeaterAreaFraction,
			diffEnergyRatio:      cmp.EnergyRatio,
			diffPowerW:           census.SignalingPowerW * cmp.EnergyRatio,
			diffTrackRatio:       cmp.TrackRatio,
			diffSNR:              cmp.AltSNR,
			peakCurrentRatio:     cmp.PeakCurrentRatio,
			scaledCycles:         cf.ScaledCycles,
			unscaledCycles:       cf.UnscaledCycles,
		})
	}
	return rows, nil
}

// Signaling is the C2 experiment across the roadmap.
func Signaling(lab *device.Lab, _ int) (*result.Result, error) {
	rows, err := signalingRows(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title: "C2. Global signaling: repeated CMOS census vs differential low-swing",
		Headers: []string{"node", "repeaters", "P (W)", "area", "cyc/edge scaled", "unscaled",
			"diff E ratio", "diff P (W)", "tracks", "diff SNR", "di/dt ratio"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.nodeNM),
			fmt.Sprintf("%d", r.repeaters),
			fmt.Sprintf("%.1f", r.signalingPowerW),
			fmt.Sprintf("%.1f%%", r.repeaterAreaFraction*100),
			fmt.Sprintf("%.1f", r.scaledCycles),
			fmt.Sprintf("%.1f", r.unscaledCycles),
			fmt.Sprintf("%.2f", r.diffEnergyRatio),
			fmt.Sprintf("%.1f", r.diffPowerW),
			fmt.Sprintf("%.2f", r.diffTrackRatio),
			fmt.Sprintf("%.1f", r.diffSNR),
			fmt.Sprintf("%.3f", r.peakCurrentRatio))
	}
	t.Notes = append(t.Notes,
		"paper: ~10⁴ repeaters at 180 nm → ~10⁶ at 50 nm; >50 W; Alpha 21264 buses at 10% swing",
		"per [9]: unscaled top-level wiring keeps the die reachable in a few cycles at ITRS clocks")
	res := &result.Result{}
	res.AddTable(t)
	return res, nil
}

// SwingStudy is the C12 experiment: the paper's called-for "further
// study... to determine worst-case noise behavior and tolerable voltage
// swings", run on a cross-unit global route at the 50 nm node against an
// SNR-2 closure target, in four environments (differential or single-ended,
// shielded or bare).
func SwingStudy(lab *device.Lab, _ int) (*result.Result, error) {
	const nodeNM = 50
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	line, err := wire.ForNodeIn(lab.Table(), nodeNM, wire.Global)
	if err != nil {
		return nil, err
	}
	const length = 6e-3
	const snr = 2.0
	c := &result.Claim{}
	c.Num("node_nm", nodeNM, "nm")
	for _, env := range []struct {
		key      string
		scheme   signaling.Scheme
		shielded bool
	}{
		{"diff_shielded_", signaling.DifferentialLowSwing, true},
		{"diff_bare_", signaling.DifferentialLowSwing, false},
		{"se_shielded_", signaling.LowSwing, true},
		{"se_bare_", signaling.LowSwing, false},
	} {
		st, err := signaling.StudySwing(line, length, node.Vdd, env.scheme, env.shielded, snr)
		if err != nil {
			return nil, err
		}
		c.Bool(env.key+"feasible", st.Feasible).
			Num(env.key+"min_swing_frac", st.MinSwingFrac, "").
			Num(env.key+"energy_ratio_at_min", st.EnergyRatioAtMin, "").
			Bool(env.key+"alpha_swing_ok", st.AlphaSwingOK)
	}
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}
