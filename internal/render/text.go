// Package render is the encode layer of the reproduction pipeline: it turns
// the typed results of the compute layer (internal/result) into consumable
// output. Three encoders share one input schema — Text reproduces the
// classic terminal report byte for byte, JSON emits the results as data,
// and CSV streams tables, figures, and claim findings as comma-separated
// blocks.
package render

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"nanometer/internal/result"
)

// Text encodes results as the classic terminal report. For any result the
// compute layer produces today, the output is byte-identical to the
// pre-split renderers (the golden test in internal/repro enforces this).
type Text struct {
	// CSVDir, when non-empty, is the directory figure CSVs are written to
	// as a side effect, announced with a "wrote <path>" line.
	CSVDir string
	// Plot renders terminal plots instead of compact figure summaries.
	Plot bool
	// Verbose appends the paper checks of each claim finding.
	Verbose bool
}

// Encode writes the result's items in order. A scenario-labeled result is
// announced first; the empty label (the base roadmap) emits nothing extra,
// preserving byte identity with the pre-scenario output.
func (t Text) Encode(w io.Writer, res *result.Result) error {
	if res.Scenario != "" {
		fmt.Fprintf(w, "[scenario %s]\n", res.Scenario)
	}
	for _, it := range res.Items {
		var err error
		switch {
		case it.Table != nil:
			err = writeTable(w, it.Table)
		case it.Figure != nil:
			err = t.encodeFigure(w, res.Scenario, it.Figure)
		case it.Claim != nil:
			err = t.encodeClaim(w, res.ID, it.Claim)
		default:
			err = fmt.Errorf("render: %s: empty item", res.ID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeFigure writes the figure (plot or compact endpoint summary) and,
// when requested, its CSV: into CSVDir for the base roadmap, into
// CSVDir/<scenario> otherwise, so a sweep's variants do not overwrite each
// other. A CSV failure is returned after the textual output so the
// artifact still shows its data; the caller's error aggregation reports
// the broken file.
func (t Text) encodeFigure(w io.Writer, scenario string, f *result.Figure) error {
	if t.Plot {
		plotASCII(w, f, 72, 18)
		fmt.Fprintln(w)
	} else {
		// Compact textual dump: endpoint summary per series.
		fmt.Fprintf(w, "%s\n", f.Title)
		for i := range f.Series {
			s := &f.Series[i]
			if len(s.X) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-40s (%.3g, %.3g) → (%.3g, %.3g), %d pts\n",
				s.Name, s.X[0], s.Y[0], s.X[len(s.X)-1], s.Y[len(s.Y)-1], len(s.X))
		}
		fmt.Fprintln(w)
	}
	if t.CSVDir == "" {
		return nil
	}
	dir := filepath.Join(t.CSVDir, filepath.FromSlash(scenario))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing %s: %w", dir, err)
	}
	path := filepath.Join(dir, f.Name+".csv")
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := writeFigureCSV(file, f); err != nil {
		file.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(w, "  wrote %s\n\n", path)
	return nil
}

// writeTable renders a column-aligned table: title, header row, dashed
// rule, rows, then the notes and a separating blank line. Columns are
// sized in runes, not bytes — the tables carry µ, θ, °.
func writeTable(w io.Writer, t *result.Table) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && displayWidth(c) > widths[i] {
				widths[i] = displayWidth(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for k := displayWidth(c); k < widths[i]; k++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", max(total-2, 4)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// displayWidth approximates terminal width by counting runes.
func displayWidth(s string) int { return len([]rune(s)) }

// plotASCII draws a crude width×height terminal plot of the figure: one
// character column per x bucket, one letter per series.
func plotASCII(w io.Writer, f *result.Figure, width, height int) {
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	xmin, xmax, ymin, ymax := bounds(f)
	tx := func(v float64) float64 { return v }
	ty := func(v float64) float64 { return v }
	if f.LogX && xmin > 0 {
		tx = math.Log10
	}
	if f.LogY && ymin > 0 {
		ty = math.Log10
	}
	xmin, xmax, ymin, ymax = tx(xmin), tx(xmax), ty(ymin), ty(ymax)
	if xmax == xmin || ymax == ymin {
		fmt.Fprintln(w, "(degenerate figure)")
		return
	}
	marks := "abcdefghijklmnopqrstuvwxyz"
	for si := range f.Series {
		s := &f.Series[si]
		m := marks[si%len(marks)]
		for i := range s.X {
			fx := (tx(s.X[i]) - xmin) / (xmax - xmin)
			fy := (ty(s.Y[i]) - ymin) / (ymax - ymin)
			col := int(fx * float64(width-1))
			row := height - 1 - int(fy*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = m
			}
		}
	}
	fmt.Fprintf(w, "%s\n", f.Title)
	for _, line := range grid {
		fmt.Fprintf(w, "|%s\n", string(line))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, " x: %s [%.3g, %.3g]   y: %s [%.3g, %.3g]\n", f.XLabel, xmin, xmax, f.YLabel, ymin, ymax)
	for si := range f.Series {
		fmt.Fprintf(w, "   %c = %s\n", marks[si%len(marks)], f.Series[si].Name)
	}
}

// bounds is the data range over every point of every series.
func bounds(f *result.Figure) (xmin, xmax, ymin, ymax float64) {
	first := true
	for si := range f.Series {
		s := &f.Series[si]
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	return
}

// encodeClaim runs the claim's prose template, then the optional verbose
// check block, then the separating blank line the legacy renderers ended
// every claim with.
func (t Text) encodeClaim(w io.Writer, id string, c *result.Claim) error {
	tpl, ok := claimText[id]
	if !ok {
		// Trace-simulation claims are user-authored, one per trace name,
		// so they share one generic template instead of per-ID prose.
		if !strings.HasPrefix(id, "trace:") {
			return fmt.Errorf("render: no text template for claim %s", id)
		}
		tpl = textTrace
	}
	v := &claimView{id: id, c: c}
	tpl(w, v)
	if v.err != nil {
		return v.err
	}
	if t.Verbose {
		for _, f := range c.Findings {
			if f.Check == nil {
				continue
			}
			status := "PASS"
			if !f.Check.Pass {
				status = "FAIL"
			}
			unit := f.Unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(w, "  check %-26s %.4g%s vs paper %.4g (±%.0f%%) → %s\n",
				f.Key, f.Value, unit, f.Check.Paper, f.Check.RelTol*100, status)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// claimView gives the templates typed access to findings by key. A missing
// key records an error instead of panicking mid-report; the encoder
// surfaces it after the template runs.
type claimView struct {
	id  string
	c   *result.Claim
	err error
}

func (v *claimView) find(key string) result.Finding {
	f, ok := v.c.Find(key)
	if !ok && v.err == nil {
		v.err = fmt.Errorf("render: claim %s: missing finding %q", v.id, key)
	}
	return f
}

// n returns the numeric value of a finding.
func (v *claimView) n(key string) float64 { return v.find(key).Value }

// i returns the numeric value as an int (counts in the prose).
func (v *claimView) i(key string) int { return int(v.find(key).Value) }

// s returns the textual value of a finding.
func (v *claimView) s(key string) string { return v.find(key).Text }

// b returns a boolean finding.
func (v *claimView) b(key string) bool { return v.find(key).Text == "true" }

// claimText holds the per-claim prose templates. Each template writes the
// claim's content lines ("\n"-terminated, no trailing blank line — the
// encoder owns the separator) from the findings alone, preserving the
// pre-split renderers' exact formats.
var claimText = map[string]func(io.Writer, *claimView){
	"c1":  textC1,
	"c3":  textC3,
	"c4":  textC4,
	"c5":  textC5,
	"c6":  textC6,
	"c7":  textC7,
	"c8":  textC8,
	"c9":  textC9,
	"c10": textC10,
	"c12": textC12,
	"c13": textC13,
}

func textTrace(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "Trace %s: %d intervals × %.3g s at the %d nm node (DTM: %s)\n",
		strings.TrimPrefix(v.id, "trace:"), v.i("intervals"), v.n("dt_seconds"), v.i("node_nm"), v.s("controller"))
	fmt.Fprintf(w, "  junction peak %.1f °C; power peak %.1f W, mean %.1f W (theoretical max %.0f W)\n",
		v.n("peak_temp_c"), v.n("peak_power_w"), v.n("mean_power_w"), v.n("theoretical_max_w"))
	fmt.Fprintf(w, "  throttled %.1f%% of intervals, throughput %.1f%%, backlog %.3g intervals of work\n",
		v.n("throttled_fraction")*100, v.n("throughput")*100, v.n("backlog_intervals"))
	fmt.Fprintf(w, "  DVFS vs full-voltage gating energy: %.2f×\n", v.n("dvfs_energy_ratio"))
}

func textC1(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C1. Dynamic thermal management (%d nm node)\n", v.i("node_nm"))
	fmt.Fprintf(w, "  theoretical worst case: %.0f W; effective worst case under DTM: %.0f W (%.0f%% — paper ≈75%%)\n",
		v.n("theoretical_worst_w"), v.n("effective_worst_w"), v.n("effective_fraction")*100)
	fmt.Fprintf(w, "  allowable θja relief: +%.0f%% (paper: +33%%)\n", v.n("theta_ja_headroom")*100)
	fmt.Fprintf(w, "  cooling: %s ($%.0f) vs %s ($%.0f) — %.1f× cheaper\n",
		v.s("cooling_theoretical_class"), v.n("cooling_theoretical_cost_usd"),
		v.s("cooling_effective_class"), v.n("cooling_effective_cost_usd"), v.n("cooling_cost_ratio"))
	fmt.Fprintf(w, "  power virus on the DTM-sized package: peak %.1f °C (limit held), throughput %.0f%%\n",
		v.n("virus_peak_temp_c"), v.n("virus_throughput")*100)
	fmt.Fprintf(w, "  65→75 W cooling-cost step at the 1999 point: %.1f× (paper: ~3×)\n", v.n("intel_65_to_75"))
}

func textC3(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C3. Library optimization at fixed timing (%d gates, %d nm)\n", v.i("gates"), v.i("node_nm"))
	for i := 0; i < v.i("n_libraries"); i++ {
		k := fmt.Sprintf("lib%d_", i)
		fmt.Fprintf(w, "  %-32s power %.3f mW  size %.0f  met=%s\n",
			v.s(k+"name"), v.n(k+"power_w")*1e3, v.n(k+"size"), v.s(k+"timing_met"))
	}
	fmt.Fprintf(w, "  on-the-fly vs coarse library: %.0f%% power saving (paper: 15-22%%); vs rich: %.0f%%\n",
		v.n("continuous_vs_coarse")*100, v.n("continuous_vs_rich")*100)
}

func textC4(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C4. Clustered voltage scaling (Vdd,l = %.2f·Vdd,h)\n", v.n("low_vdd_ratio"))
	fmt.Fprintf(w, "  path utilization: %.0f%% of paths below half the cycle (paper: >50%%)\n", v.n("path_utilization")*100)
	fmt.Fprintf(w, "  clustered:   %.0f%% of gates at Vdd,l (paper ~75%%), dynamic saving %.0f%% (paper 45-50%%),\n"+
		"               LC overhead %.1f%% (paper 8-10%%), area +%.0f%% (paper ~15%%), %d LCs, met=%s\n",
		v.n("clustered_assigned_fraction")*100, v.n("clustered_dynamic_saving")*100,
		v.n("clustered_lc_overhead")*100, v.n("clustered_area_overhead")*100,
		v.i("clustered_level_converters"), v.s("clustered_timing_met"))
	fmt.Fprintf(w, "  unclustered: %.0f%% assigned, saving %.0f%%, LC overhead %.1f%%, %d LCs (clustering ablation)\n",
		v.n("unclustered_assigned_fraction")*100, v.n("unclustered_dynamic_saving")*100,
		v.n("unclustered_lc_overhead")*100, v.i("unclustered_level_converters"))
}

func textC5(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C5. Dual-Vth assignment\n")
	fmt.Fprintf(w, "  sensitivity-ordered: %.0f%% high-Vth, leakage -%.0f%% (paper 40-80%%), delay +%.1f%%, met=%s\n",
		v.n("sensitivity_high_vth_fraction")*100, v.n("sensitivity_leakage_saving")*100,
		v.n("sensitivity_delay_penalty")*100, v.s("sensitivity_timing_met"))
	fmt.Fprintf(w, "  slack-ordered (ablation): %.0f%% high-Vth, leakage -%.0f%%\n",
		v.n("slack_high_vth_fraction")*100, v.n("slack_leakage_saving")*100)
}

func textC6(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C6. Re-sizing vs multi-Vdd (same start netlist)\n")
	fmt.Fprintf(w, "  resize: size -%.0f%% → dynamic -%.0f%% (sublinearity %.2f — wire cap persists)\n",
		v.n("resize_size_reduction")*100, v.n("resize_dynamic_saving")*100, v.n("resize_sublinearity"))
	fmt.Fprintf(w, "  CVS:    %.0f%% assigned → dynamic -%.0f%% (quadratic Vdd leverage)\n",
		v.n("cvs_assigned_fraction")*100, v.n("cvs_dynamic_saving")*100)
	fmt.Fprintf(w, "  combined flow: total -%.0f%% (dyn -%.0f%%, leak -%.0f%%), met=%s\n",
		v.n("combined_total_saving")*100, v.n("combined_dynamic_saving")*100,
		v.n("combined_leakage_saving")*100, v.s("combined_timing_met"))
	fmt.Fprintf(w, "  resize-then-CVS: only %.0f%% of gates still tolerate Vdd,l (paper's ordering warning)\n",
		v.n("assigned_after_resize")*100)
}

func textC7(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C7. Vdd floor under Pdyn ≥ 10×Pstatic (35 nm, constant-Pstatic policy)\n")
	fmt.Fprintf(w, "  floor: Vdd = %.2f V (paper ≈0.44 V), dynamic saving %.0f%% (paper 46%%)\n",
		v.n("vdd_floor"), v.n("dynamic_saving")*100)
	fmt.Fprintf(w, "  at 0.2 V: delay ×%.2f (paper <1.3×), Pdyn -%.0f%% (paper 89%%), Vth = %.0f mV\n",
		v.n("at02_delay_norm"), (1-v.n("at02_pdyn_norm"))*100, v.n("at02_vth")*1e3)
}

func textC8(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C8. ITRS bump plan at 35 nm\n")
	fmt.Fprintf(w, "  effective power-bump pitch: %.0f µm (paper: 356 µm); attainable: %.0f µm\n",
		v.n("effective_pitch_m")*1e6, v.n("min_pitch_m")*1e6)
	fmt.Fprintf(w, "  required rail width: %.0f× Wmin under ITRS counts (paper >2000×, rails %s), %.0f× at min pitch (paper 16×)\n",
		v.n("itrs_width_over_min"), feasStr(v.b("itrs_feasible")), v.n("min_width_over_min"))
	fmt.Fprintf(w, "  bump current: %.0f A over %d Vdd bumps = %.2f A/bump vs %.2f A capability → need %d bumps\n",
		v.n("supply_current_a"), v.i("vdd_bumps"), v.n("per_bump_a"), v.n("capability_a"), v.i("required_bumps"))
	fmt.Fprintf(w, "  solver check: 1-D ladder/analytic = %.3f (≈1); 2-D all-top-metal bound = %.1f×\n",
		v.n("ladder_ratio"), v.n("pessimistic_ratio"))
}

func textC9(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C9. Sleep-mode wakeup transients and MCML (%d nm)\n", v.i("node_nm"))
	fmt.Fprintf(w, "  MTCMOS block: standby leakage -%.1f%%, active delay +%.1f%%\n",
		v.n("block_standby_savings")*100, v.n("block_delay_penalty")*100)
	fmt.Fprintf(w, "  unstaged wakeup of a %.0f A block: droop %.1f%% Vdd at min bump pitch vs %.1f%% under ITRS counts\n",
		v.n("block_step_a"), v.n("noise_min_pitch_fraction")*100, v.n("noise_itrs_fraction")*100)
	fmt.Fprintf(w, "  staging required for <10%% droop: %.1f ns (min pitch) vs %.1f ns (ITRS); max instant step %.0f A vs %.0f A\n",
		v.n("safe_ramp_min_pitch_s")*1e9, v.n("safe_ramp_itrs_s")*1e9,
		v.n("max_instant_step_min_a"), v.n("max_instant_step_itrs_a"))
	fmt.Fprintf(w, "  MCML vs CMOS datapath gate (α=0.5): %.2f µW vs %.2f µW, crossover α*=%.2f, di/dt ratio %.3f\n",
		v.n("mcml_power_w")*1e6, v.n("cmos_power_w")*1e6, v.n("crossover_activity"), v.n("current_ripple_ratio"))
}

func textC10(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C10. Intra-cell multi-Vth stacks (§3.3, %d nm 2-high NAND pull-down)\n", v.i("node_nm"))
	labels := []string{"all low Vth", "bottom high", "top high", "all high"}
	n := v.i("n_assignments")
	if n > len(labels) {
		n = len(labels)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("a%d_", i)
		fmt.Fprintf(w, "  %-12s leakage -%5.1f%%  delay +%5.1f%%\n",
			labels[i], v.n(k+"leakage_saving")*100, v.n(k+"delay_penalty")*100)
	}
	fmt.Fprintf(w, "  best within 10%% delay: %d high-Vth device(s), leakage -%.0f%%\n",
		v.i("best_high_count"), v.n("best_leakage_saving")*100)
	fmt.Fprintf(w, "  stack effect: both-off leaks %.2f× a single off device; parking the idle state saves %.0f%%\n",
		v.n("stack_factor"), v.n("parked_saving")*100)
}

func textC12(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C12. Tolerable-swing study (the §2.2 \"further study\" — %d nm global route, SNR ≥ 2)\n", v.i("node_nm"))
	study := func(name, k string) {
		if !v.b(k + "feasible") {
			fmt.Fprintf(w, "  %-28s no swing closes (shielding insufficient — the paper's caveat)\n", name)
			return
		}
		alpha := "fails"
		if v.b(k + "alpha_swing_ok") {
			alpha = "closes"
		}
		fmt.Fprintf(w, "  %-28s min swing %.1f%% of Vdd (energy ×%.2f); Alpha's 10%% swing %s\n",
			name, v.n(k+"min_swing_frac")*100, v.n(k+"energy_ratio_at_min"), alpha)
	}
	study("differential, shielded", "diff_shielded_")
	study("differential, unshielded", "diff_bare_")
	study("single-ended, shielded", "se_shielded_")
	study("single-ended, unshielded", "se_bare_")
}

func textC13(w io.Writer, v *claimView) {
	fmt.Fprintf(w, "C13. Signaling-primitive planner (conclusion #2's EDA tool, %d nm, %d global routes)\n",
		v.i("node_nm"), v.i("routes"))
	fmt.Fprintf(w, "  primitive mix: %d repeated CMOS, %d low-swing, %d differential low-swing\n",
		v.i("repeated"), v.i("low_swing"), v.i("differential"))
	fmt.Fprintf(w, "  power: %.2f mW vs %.2f mW all-repeated baseline (-%.0f%%), %.0f routing tracks\n",
		v.n("total_power_w")*1e3, v.n("baseline_power_w")*1e3, v.n("saving")*100, v.n("total_tracks"))
}

func feasStr(ok bool) string {
	if ok {
		return "feasible"
	}
	return "INFEASIBLE on-die"
}
