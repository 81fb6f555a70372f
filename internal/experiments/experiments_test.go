// Integration tests: every reproduced table, figure, and claim must hold the
// paper's qualitative shape (orderings, approximate factors, crossover
// locations). EXPERIMENTS.md records the quantitative comparison.
package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/result"
)

// run computes an artifact on the base laboratory at the default mesh.
func run(t *testing.T, artifact func(*device.Lab, int) (*result.Result, error)) *result.Result {
	t.Helper()
	res, err := artifact(device.BaseLab(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// findings, table and figure return the first item of their kind in res.
func findings(t *testing.T, res *result.Result) *result.Claim {
	t.Helper()
	for _, it := range res.Items {
		if it.Claim != nil {
			return it.Claim
		}
	}
	t.Fatal("result carries no claim")
	return nil
}

func table(t *testing.T, res *result.Result) *result.Table {
	t.Helper()
	for _, it := range res.Items {
		if it.Table != nil {
			return it.Table
		}
	}
	t.Fatal("result carries no table")
	return nil
}

func figure(t *testing.T, res *result.Result) *result.Figure {
	t.Helper()
	for _, it := range res.Items {
		if it.Figure != nil {
			return it.Figure
		}
	}
	t.Fatal("result carries no figure")
	return nil
}

// num reads a numeric finding by key, flag a boolean one.
func num(t *testing.T, c *result.Claim, key string) float64 {
	t.Helper()
	f, ok := c.Find(key)
	if !ok {
		t.Fatalf("no finding %q", key)
	}
	return f.Value
}

func flag(t *testing.T, c *result.Claim, key string) bool { return num(t, c, key) == 1 }

// cell parses the number in a table cell, without a leading "+" or a
// trailing "%".
func cell(t *testing.T, tab *result.Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Trim(tab.Rows[row][col], "+%"), 64)
	if err != nil {
		t.Fatalf("%s row %d column %q: %v", tab.Title, row, tab.Headers[col], err)
	}
	return v
}

// --- Table 1 -----------------------------------------------------------------

func TestTable1Shape(t *testing.T) {
	tab := table(t, run(t, Table1))
	if len(tab.Rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 6 published + 3 ITRS", len(tab.Rows))
	}
	// Column 6 flags a published device meeting the sub-1 V Ion target
	// ("-" on the ITRS rows), column 7 the dynamic-power penalty.
	for _, row := range tab.Rows {
		if row[6] == "YES" {
			t.Errorf("%s: the paper's take-away is that no sub-1 V device meets the Ion target", row[0])
		}
	}
	// The two 70 nm-class devices reported at 1.2 V carry the +78 % flag.
	flagged := 0
	for i, row := range tab.Rows {
		if row[7] == "-" {
			continue
		}
		if p := cell(t, tab, i, 7) / 100; p > 0.7 && p < 0.85 {
			flagged++
		}
	}
	if flagged != 2 {
		t.Fatalf("expected 2 devices with the +78%% dynamic-power penalty, got %d", flagged)
	}
}

// --- Table 2 -----------------------------------------------------------------

func TestTable2AgainstPaper(t *testing.T) {
	tab := table(t, run(t, Table2))
	if len(tab.Rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 6 nodes + the 0.7 V variant", len(tab.Rows))
	}
	// Columns: node, Vdd, Coxe, Cox, Vth, paper, Ioff, paper, Ioff MG,
	// paper, ITRS Ioff. The paper's values come from their source, not
	// from the cells that round them.
	const colVth, colIoff, colIoffMG, colITRS = 4, 6, 8, 10
	for i, row := range tab.Rows {
		paper, ok := paperTable2[row[0]+"@"+row[1]]
		if !ok {
			t.Fatalf("%s nm @%s V: missing paper anchor", row[0], row[1])
		}
		tolVth := 0.005
		tolIoff := 1.6 // ×
		if cell(t, tab, i, 1) != itrs.Base().MustNode(int(cell(t, tab, i, 0))).Vdd {
			// The 0.7 V row is a pure prediction (not a calibration
			// anchor); allow a wider band.
			tolVth, tolIoff = 0.04, 2.5
		}
		if vth := cell(t, tab, i, colVth); math.Abs(vth-paper[0]) > tolVth {
			t.Errorf("%s nm @%s V: Vth %.3f vs paper %.2f", row[0], row[1], vth, paper[0])
		}
		ioff := cell(t, tab, i, colIoff)
		ratio := ioff / paper[1]
		if ratio > tolIoff || ratio < 1/tolIoff {
			t.Errorf("%s nm @%s V: Ioff %.0f vs paper %.0f (×%.2f)", row[0], row[1], ioff, paper[1], ratio)
		}
		if cell(t, tab, i, colIoffMG) >= ioff {
			t.Errorf("%s nm: metal gate must reduce Ioff", row[0])
		}
	}
	// The roadmap-wide Ioff growth: paper reports 152× (vs ITRS 23×).
	last := len(tab.Rows) - 1
	growth := cell(t, tab, last, colIoff) / cell(t, tab, 0, colIoff)
	if growth < 100 || growth > 260 {
		t.Errorf("Ioff growth across the roadmap = %.0f×, paper says 152×", growth)
	}
	// Coxe normalization grows but much more slowly than physical Cox.
	if coxe, cox := cell(t, tab, last, 2), cell(t, tab, last, 3); coxe >= cox {
		t.Errorf("electrical capacitance (%g) must lag physical (%g) — the paper's point 1", coxe, cox)
	}
	// Model Ioff exceeds the ITRS projection at the nanometer nodes
	// ("additional static power reduction required by circuit design").
	if ioff, itrsIoff := cell(t, tab, last, colIoff), cell(t, tab, last, colITRS); ioff < 2*itrsIoff {
		t.Errorf("35 nm model Ioff %.0f should exceed the ITRS %.0f by ~3×", ioff, itrsIoff)
	}
}

// --- Figure 1 ----------------------------------------------------------------

func TestFigure1Shape(t *testing.T) {
	fig := figure(t, run(t, Figure1))
	if len(fig.Series) != 3 {
		t.Fatalf("Figure 1 needs 3 curves")
	}
	for _, s := range fig.Series {
		// Log-log slope −1: ratio × activity is constant.
		c0 := s.Y[0] * s.X[0]
		for i := range s.X {
			if !approx(s.Y[i]*s.X[i], c0, 1e-6) {
				t.Fatalf("%s: Pstatic/Pdyn must scale as 1/activity", s.Name)
			}
		}
	}
	// Curve ordering at fixed activity: the 0.6 V 50 nm case dominates
	// everything (its Vth is 40 mV), and sits ~an order of magnitude up.
	y70 := fig.Series[0].Y[0]
	y50at07 := fig.Series[1].Y[0]
	y50at06 := fig.Series[2].Y[0]
	if !(y50at06 > y50at07 && y50at06 > y70) {
		t.Fatalf("50 nm @0.6 V must be the worst static/dynamic ratio: %g, %g, %g", y70, y50at07, y50at06)
	}
	if y50at06 < 5*y50at07 {
		t.Fatalf("dropping 0.7→0.6 V must explode the ratio (paper: ~7× Ioff)")
	}
	// The §3.1 headline: for activities of 0.01–0.1, static power can
	// approach and exceed 10 % of dynamic. Evaluate the 0.6 V curve at
	// α = 0.05 via its 1/α law.
	s06 := fig.Series[2]
	mid := s06.Y[0] * s06.X[0] / 0.05
	if mid < 0.1 {
		t.Fatalf("50 nm @0.6 V at α=0.05: Pstatic/Pdyn = %g, paper says it exceeds 10%%", mid)
	}
}

// --- Figure 2 ----------------------------------------------------------------

func TestFigure2Shape(t *testing.T) {
	rows, err := figure2Rows(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Figure 2 needs all 6 nodes")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ionGainPct <= rows[i-1].ionGainPct {
			t.Fatalf("Ion gain per 100 mV must grow with scaling")
		}
		if rows[i].ioffXFor20PctIon >= rows[i-1].ioffXFor20PctIon {
			t.Fatalf("the Ioff penalty for +20%% Ion must shrink with scaling")
		}
	}
	// 100 mV always costs ≈15× Ioff (Eq. 4 with 85 mV/decade).
	for _, r := range rows {
		if !approx(r.ioffX100mV, math.Pow(10, 0.1/0.085), 1e-3) {
			t.Fatalf("%d nm: 100 mV Ioff multiplier = %g, want ≈15", r.nodeNM, r.ioffX100mV)
		}
	}
	// At 35 nm the penalty approaches the paper's 7×.
	last := rows[len(rows)-1]
	if last.nodeNM != 35 || last.ioffXFor20PctIon > 20 {
		t.Fatalf("35 nm penalty = %.1f×, paper says 7×", last.ioffXFor20PctIon)
	}
	if fig := figure(t, run(t, Figure2)); len(fig.Series) != 2 || len(fig.Series[1].Y) != len(rows) {
		t.Fatalf("Figure 2 wants 2 series of one point per node")
	}
}

// --- Figures 3 and 4 ---------------------------------------------------------

func TestFigure3And4Shape(t *testing.T) {
	fig3, fig4, err := figures3And4(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Series) != 3 || len(fig4.Series) != 3 {
		t.Fatalf("three policies expected")
	}
	// Figure 3 at the lowest supply: constant Vth ≥ conservative ≥
	// constant-Pstatic, with the paper's approximate magnitudes.
	dConst := fig3.Series[0].Y[0]
	dPs := fig3.Series[1].Y[0]
	dCons := fig3.Series[2].Y[0]
	if !(dConst > dCons && dCons > dPs) {
		t.Fatalf("delay ordering broken: %g, %g, %g", dConst, dPs, dCons)
	}
	if dConst < 2.3 || dConst > 5.5 {
		t.Fatalf("constant-Vth delay at 0.2 V = %g×, paper says 3.7×", dConst)
	}
	if dPs > 1.6 {
		t.Fatalf("constant-Pstatic delay at 0.2 V = %g×, paper says <1.3×", dPs)
	}
	// Figure 4: the constant-Pstatic ratio falls quadratically toward ~1-2
	// at 0.2 V while constant-Vth stays flat.
	rPs02 := fig4.Series[1].Y[0]
	rPs06 := fig4.Series[1].Y[len(fig4.Series[1].Y)-1]
	if rPs02 > 3 {
		t.Fatalf("constant-Pstatic Pdyn/Pstatic at 0.2 V = %g, paper shows ≈1-2", rPs02)
	}
	if !approx(rPs06/rPs02, 9, 0.15) {
		t.Fatalf("constant-Pstatic ratio must fall ~9× from 0.6 to 0.2 V, got %g", rPs06/rPs02)
	}
	rConst02 := fig4.Series[0].Y[0]
	if rConst02 < 0.5*rPs06 {
		t.Fatalf("constant-Vth ratio should stay roughly flat (DIBL cancellation), got %g vs %g", rConst02, rPs06)
	}
}

// --- Figure 5 ----------------------------------------------------------------

func TestFigure5Shape(t *testing.T) {
	rows, err := figure5Rows(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Figure 5 needs all 6 nodes")
	}
	for _, r := range rows {
		if r.itrsWidthOverMin <= r.minWidthOverMin {
			t.Fatalf("%d nm: the ITRS bump plan must always be worse", r.nodeNM)
		}
	}
	// Paper anchors at 35 nm.
	last := rows[len(rows)-1]
	if last.nodeNM != 35 {
		t.Fatalf("rows must end at 35 nm")
	}
	if last.minWidthOverMin < 8 || last.minWidthOverMin > 25 {
		t.Fatalf("35 nm min-pitch width = %.1f×, paper says 16×", last.minWidthOverMin)
	}
	if last.itrsWidthOverMin < 500 {
		t.Fatalf("35 nm ITRS width = %.0f×, paper says >2000× (same order)", last.itrsWidthOverMin)
	}
	if last.minRoutingFraction < 0.16 || last.minRoutingFraction > 0.22 {
		t.Fatalf("35 nm routing share = %.3f, paper says 17-20%%", last.minRoutingFraction)
	}
	// 50 nm is more restricted than 35 nm (the power-density dip).
	var r50, r35 figure5Row
	for _, r := range rows {
		if r.nodeNM == 50 {
			r50 = r
		}
		if r.nodeNM == 35 {
			r35 = r
		}
	}
	if r50.minWidthOverMin <= r35.minWidthOverMin {
		t.Fatalf("50 nm (%.1f) should be more restricted than 35 nm (%.1f)",
			r50.minWidthOverMin, r35.minWidthOverMin)
	}
	figure(t, run(t, Figure5)) // fails unless the artifact carries its figure
}

func approx(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}
