package itrs

import (
	"math"
	"testing"
)

func TestRoadmapCoverage(t *testing.T) {
	rm := Base().All()
	if len(rm) != 6 {
		t.Fatalf("roadmap has %d nodes, want 6 (180→35 nm)", len(rm))
	}
	want := []int{180, 130, 100, 70, 50, 35}
	for i, n := range rm {
		if n.DrawnNM != want[i] {
			t.Fatalf("node %d is %d nm, want %d", i, n.DrawnNM, want[i])
		}
	}
}

func TestRoadmapMonotoneTrends(t *testing.T) {
	rm := Base().All()
	for i := 1; i < len(rm); i++ {
		prev, cur := rm[i-1], rm[i]
		if cur.Vdd > prev.Vdd {
			t.Errorf("%d nm: Vdd must not rise with scaling (%g > %g)", cur.DrawnNM, cur.Vdd, prev.Vdd)
		}
		if cur.ToxPhysicalM >= prev.ToxPhysicalM {
			t.Errorf("%d nm: Tox must shrink", cur.DrawnNM)
		}
		if cur.LeffM >= prev.LeffM {
			t.Errorf("%d nm: Leff must shrink", cur.DrawnNM)
		}
		if cur.ClockHz <= prev.ClockHz {
			t.Errorf("%d nm: clock must rise", cur.DrawnNM)
		}
		if cur.IoffITRSAPerM <= prev.IoffITRSAPerM {
			t.Errorf("%d nm: ITRS Ioff projection must rise", cur.DrawnNM)
		}
		if cur.TotalPads <= prev.TotalPads {
			t.Errorf("%d nm: pad count must rise", cur.DrawnNM)
		}
		if cur.BumpPitchMinM >= prev.BumpPitchMinM {
			t.Errorf("%d nm: minimum bump pitch must shrink", cur.DrawnNM)
		}
		if cur.ThetaJA >= prev.ThetaJA {
			t.Errorf("%d nm: required θja must shrink", cur.DrawnNM)
		}
	}
}

func TestRoadmapPaperAnchors(t *testing.T) {
	// Values the paper quotes directly.
	n35 := Base().MustNode(35)
	if n35.BumpPitchMinM != 80e-6 {
		t.Errorf("35 nm min bump pitch = %g, paper says 80 µm", n35.BumpPitchMinM)
	}
	if n35.TotalPads != 4416 {
		t.Errorf("35 nm pads = %d, paper says 4416", n35.TotalPads)
	}
	if got := n35.VddBumps(); got < 1400 || got > 1600 {
		t.Errorf("35 nm Vdd bumps = %d, paper says ~1500", got)
	}
	// Effective power-bump pitch ≈ 356 µm.
	if got := n35.EffectiveBumpPitchM(); math.Abs(got-356e-6) > 15e-6 {
		t.Errorf("35 nm effective bump pitch = %.0f µm, paper says 356 µm", got*1e6)
	}
	// Worst-case supply current ≈ 300 A.
	if got := n35.SupplyCurrentA(); got < 280 || got < 0 || got > 330 {
		t.Errorf("35 nm supply current = %g A, paper says ~300 A", got)
	}
	// Standby allowance ≈ 30 A.
	if got := n35.StandbyCurrentAllowanceA(); got < 25 || got > 35 {
		t.Errorf("35 nm standby allowance = %g A, paper says 30 A", got)
	}
	// ITRS Ioff projections of Table 2: 7, 10, 16, 40, 80, 160 nA/µm.
	wantIoff := map[int]float64{180: 7e-3, 130: 10e-3, 100: 16e-3, 70: 40e-3, 50: 80e-3, 35: 160e-3}
	for nm, want := range wantIoff {
		if got := Base().MustNode(nm).IoffITRSAPerM; math.Abs(got-want) > 1e-9 {
			t.Errorf("%d nm ITRS Ioff = %g, want %g A/m", nm, got, want)
		}
	}
	// Junction temperature drops from 100 °C (1999) to 85 °C.
	if Base().MustNode(180).JunctionTempC != 100 || Base().MustNode(130).JunctionTempC != 85 {
		t.Errorf("junction temperature roadmap does not match the ITRS reduction")
	}
	// θja reaches 0.25 °C/W "in 3 years" (the 50 nm column carries it).
	if Base().MustNode(50).ThetaJA != 0.25 {
		t.Errorf("50 nm θja = %g, want 0.25", Base().MustNode(50).ThetaJA)
	}
}

func TestPowerDensityDipAt35(t *testing.T) {
	// The paper: "35 nm is less restricted than 50 nm due to a reduction in
	// power density" — area jumps ~15 % while power is nearly flat.
	d50 := Base().MustNode(50).PowerDensityWPerM2()
	d35 := Base().MustNode(35).PowerDensityWPerM2()
	if d35 >= d50 {
		t.Fatalf("power density must dip at 35 nm: %g ≥ %g", d35, d50)
	}
	areaRatio := Base().MustNode(35).DieAreaM2 / Base().MustNode(50).DieAreaM2
	if areaRatio < 1.10 || areaRatio > 1.20 {
		t.Fatalf("35 nm area jump = %.0f%%, paper says ~15%%", (areaRatio-1)*100)
	}
}

func TestByNode(t *testing.T) {
	if _, err := Base().ByNode(90); err == nil {
		t.Fatalf("unknown node must error")
	}
	n, err := Base().ByNode(70)
	if err != nil || n.DrawnNM != 70 {
		t.Fatalf("Base().ByNode(70) = %+v, %v", n, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNode must panic on unknown nodes")
		}
	}()
	Base().MustNode(65)
}

func TestNodesOrder(t *testing.T) {
	ns := Base().NodesNM()
	for i := 1; i < len(ns); i++ {
		if ns[i] >= ns[i-1] {
			t.Fatalf("Base().NodesNM() must be descending: %v", ns)
		}
	}
}

func TestVddAltOnlyAt50(t *testing.T) {
	for _, n := range Base().All() {
		if n.DrawnNM == 50 {
			if n.VddAlt != 0.7 {
				t.Fatalf("50 nm VddAlt = %g, want 0.7 (the paper's realistic supply)", n.VddAlt)
			}
			continue
		}
		if n.VddAlt != 0 {
			t.Fatalf("%d nm has unexpected VddAlt %g", n.DrawnNM, n.VddAlt)
		}
	}
}

func TestTopMetalSheetResistance(t *testing.T) {
	for _, n := range Base().All() {
		rs := n.TopMetalSheetOhms()
		if rs <= 0 || rs > 1 {
			t.Fatalf("%d nm sheet resistance %g Ω/sq out of range", n.DrawnNM, rs)
		}
	}
	// Thinner top metal at finer nodes → higher sheet resistance.
	if Base().MustNode(35).TopMetalSheetOhms() <= Base().MustNode(180).TopMetalSheetOhms() {
		t.Fatalf("sheet resistance must rise with scaling")
	}
}

func TestTable1Dataset(t *testing.T) {
	pub := Table1Published()
	if len(pub) != 6 {
		t.Fatalf("Table 1 has %d published rows, want 6", len(pub))
	}
	for _, d := range pub {
		if d.MeetsITRSSub1V() {
			t.Errorf("%s claims sub-1V + Ion target — the paper's point is that none do", d.Ref)
		}
		if d.Vdd <= 0 || d.IonUAPerUM <= 0 {
			t.Errorf("%s has invalid data", d.Ref)
		}
	}
	its := Table1ITRS()
	if len(its) != 3 {
		t.Fatalf("Table 1 has %d ITRS rows, want 3", len(its))
	}
	for _, r := range its {
		if r.IonUAPerUM != 750 {
			t.Errorf("ITRS %d nm Ion target = %g, want 750", r.NodeNM, r.IonUAPerUM)
		}
	}
}

func TestDynamicPowerPenalty(t *testing.T) {
	// 1.2 V vs 0.9 V → (1.2/0.9)² − 1 = 77.8 %.
	d := PublishedDevice{Vdd: 1.2}
	if got := d.DynamicPowerPenalty(0.9); math.Abs(got-0.778) > 0.001 {
		t.Fatalf("penalty = %g, want ≈0.778 (the paper's 78%%)", got)
	}
}
