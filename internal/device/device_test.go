package device

import (
	"math"
	"testing"
	"testing/quick"

	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func TestForNodeAllNodes(t *testing.T) {
	for _, nm := range itrs.Base().NodesNM() {
		n, err := BaseLab().ForNode(nm)
		if err != nil {
			t.Fatalf("%d nm NMOS: %v", nm, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%d nm NMOS invalid: %v", nm, err)
		}
		p, err := BaseLab().ForNodePMOS(nm)
		if err != nil {
			t.Fatalf("%d nm PMOS: %v", nm, err)
		}
		if p.MobilityM2PerVs >= n.MobilityM2PerVs {
			t.Errorf("%d nm: hole mobility must be below electron mobility", nm)
		}
	}
}

func TestForNodeUnknown(t *testing.T) {
	if _, err := BaseLab().ForNode(65); err == nil {
		t.Fatalf("unknown node must error")
	}
}

// TestForNodeSharesCalibration: two hits return the one cached device,
// NMOS and PMOS alike.
func TestForNodeSharesCalibration(t *testing.T) {
	lab := BaseLab()
	if a, b := lab.MustForNode(100), lab.MustForNode(100); a != b {
		t.Fatalf("two ForNode hits returned %p and %p, want one cached device", a, b)
	}
	a, _ := lab.ForNodePMOS(100)
	b, _ := lab.ForNodePMOS(100)
	if a == nil || a != b {
		t.Fatalf("two ForNodePMOS hits returned %p and %p, want one cached device", a, b)
	}
}

func TestCalibrationHitsIonTarget(t *testing.T) {
	// The mobility calibration must make every node deliver exactly the
	// ITRS 750 µA/µm at nominal conditions.
	for _, nm := range itrs.Base().NodesNM() {
		d := BaseLab().MustForNode(nm)
		node := itrs.Base().MustNode(nm)
		ion := d.IonPerWidth(node.Vdd, units.RoomTemperature)
		if !units.ApproxEqual(ion, node.IonTargetAPerM, 1e-6, 0) {
			t.Errorf("%d nm: Ion = %g A/m, want %g", nm, ion, node.IonTargetAPerM)
		}
	}
}

func TestElectricalOxide(t *testing.T) {
	d := BaseLab().MustForNode(100)
	// Poly gate: physical + 0.7 nm (0.4 inversion + 0.3 depletion).
	if got := d.ToxElectricalM() - d.ToxPhysicalM; math.Abs(got-0.7e-9) > 1e-12 {
		t.Fatalf("electrical-physical gap = %g, want 0.7 nm", got)
	}
	mg := d.MetalGate()
	if got := mg.ToxElectricalM() - mg.ToxPhysicalM; math.Abs(got-0.4e-9) > 1e-12 {
		t.Fatalf("metal gate gap = %g, want 0.4 nm (inversion layer only)", got)
	}
	if mg.CoxElectrical() <= d.CoxElectrical() {
		t.Fatalf("metal gate must have higher electrical capacitance")
	}
	if d.CoxPhysical() <= d.CoxElectrical() {
		t.Fatalf("physical-oxide capacitance exceeds electrical by construction")
	}
}

func TestIoffEquation4(t *testing.T) {
	// At the reference drain bias (no DIBL shift) and 300 K, Eq. 4 is
	// exactly 10 µA/µm × 10^(−Vth/85 mV).
	d := BaseLab().MustForNode(70)
	for _, vth := range []float64{0.1, 0.2, 0.3, 0.4} {
		got := d.WithVth(vth).IoffPerWidth(d.VddRef, units.RoomTemperature)
		want := 10 * math.Pow(10, -vth/0.085)
		if !units.ApproxEqual(got, want, 1e-9, 0) {
			t.Errorf("Ioff(Vth=%g) = %g, want %g", vth, got, want)
		}
	}
}

func TestIoffDIBL(t *testing.T) {
	d := BaseLab().MustForNode(35)
	lo := d.IoffPerWidth(0.3, units.RoomTemperature)
	hi := d.IoffPerWidth(0.6, units.RoomTemperature)
	if hi <= lo {
		t.Fatalf("DIBL must raise Ioff with drain bias: %g vs %g", hi, lo)
	}
	// With DIBL = 0.1 V/V, a 0.3 V bias reduction raises Vth by 30 mV →
	// Ioff ratio 10^(0.030/0.085).
	want := math.Pow(10, 0.1*0.3/0.085)
	if !units.ApproxEqual(hi/lo, want, 1e-6, 0) {
		t.Fatalf("DIBL ratio = %g, want %g", hi/lo, want)
	}
	// The DIBL on/off ablation (DESIGN.md §13 item 2): switching DIBL off
	// must raise Ioff at the reduced drain bias.
	noDIBL := *d
	noDIBL.DIBL = 0
	if without := noDIBL.IoffPerWidth(0.3, units.RoomTemperature); lo >= without {
		t.Fatalf("DIBL must reduce Ioff at reduced drain bias: %g vs %g", lo, without)
	}
}

func TestSubthresholdSwingTemperature(t *testing.T) {
	d := BaseLab().MustForNode(50)
	if got := d.SubthresholdSwing(300); got != 0.085 {
		t.Fatalf("S(300 K) = %g, want 0.085", got)
	}
	if got := d.SubthresholdSwing(358.15); !units.ApproxEqual(got, 0.085*358.15/300, 1e-12, 0) {
		t.Fatalf("S(85 °C) = %g", got)
	}
	// Leakage rises with temperature.
	if d.IoffPerWidth(0.6, 358.15) <= d.IoffPerWidth(0.6, 300) {
		t.Fatalf("Ioff must rise with temperature")
	}
}

func TestTable2VthAnchors(t *testing.T) {
	// The calibration targets the paper's Table 2 thresholds exactly at
	// nominal supply and 300 K.
	anchors := map[int]float64{180: 0.30, 130: 0.29, 100: 0.22, 70: 0.14, 50: 0.04, 35: 0.11}
	for nm, want := range anchors {
		d := BaseLab().MustForNode(nm)
		node := itrs.Base().MustNode(nm)
		vth, err := d.SolveVthForIon(node.IonTargetAPerM, node.Vdd, units.RoomTemperature)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if math.Abs(vth-want) > 1e-4 {
			t.Errorf("%d nm: solved Vth = %.4f, paper anchor %.2f", nm, vth, want)
		}
	}
}

func TestSolveVthMonotoneRoundTrip(t *testing.T) {
	d := BaseLab().MustForNode(100)
	node := itrs.Base().MustNode(100)
	// Property: solving for a target and evaluating gives the target back.
	f := func(seed uint8) bool {
		target := 300 + float64(seed)*3 // 300–1065 µA/µm
		vth, err := d.SolveVthForIon(target, node.Vdd, units.RoomTemperature)
		if err != nil {
			return false
		}
		got := d.WithVth(vth).IonPerWidth(node.Vdd, units.RoomTemperature)
		return units.ApproxEqual(got, target, 1e-5, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveVthErrors(t *testing.T) {
	d := BaseLab().MustForNode(100)
	if _, err := d.SolveVthForIon(-1, 1.2, 300); err == nil {
		t.Fatalf("negative target must error")
	}
	if _, err := d.SolveVthForIon(1e9, 1.2, 300); err == nil {
		t.Fatalf("unreachable target must error")
	}
}

func TestIonMonotonicity(t *testing.T) {
	d := BaseLab().MustForNode(70)
	T := units.RoomTemperature
	// Increasing Vdd increases Ion.
	prev := 0.0
	for _, vdd := range []float64{0.5, 0.7, 0.9, 1.1} {
		ion := d.IonPerWidth(vdd, T)
		if ion <= prev {
			t.Fatalf("Ion must increase with Vdd: %g at %g V", ion, vdd)
		}
		prev = ion
	}
	// Increasing Vth decreases Ion.
	prev = math.Inf(1)
	for _, vth := range []float64{0.1, 0.2, 0.3, 0.4} {
		ion := d.WithVth(vth).IonPerWidth(0.9, T)
		if ion >= prev {
			t.Fatalf("Ion must decrease with Vth: %g at %g V", ion, vth)
		}
		prev = ion
	}
}

func TestRsDegradesDrive(t *testing.T) {
	d := BaseLab().MustForNode(100)
	noRs := *d
	noRs.RsOhmM = 0
	T := units.RoomTemperature
	if noRs.IonPerWidth(1.2, T) <= d.IonPerWidth(1.2, T) {
		t.Fatalf("parasitic source resistance must degrade drive current")
	}
	// And Ion never exceeds the intrinsic Idsat0.
	if d.IonPerWidth(1.2, T) > d.Idsat0PerWidth(1.2, 1.2, T) {
		t.Fatalf("extrinsic drive exceeds intrinsic")
	}
}

func TestDriveBelowThresholdIsFiniteAndSmall(t *testing.T) {
	// The moderate-inversion smoothing must keep current finite and small
	// (but nonzero) at Vdd near or below Vth — the Figure 3 regime.
	d := BaseLab().MustForNode(35)
	T := units.RoomTemperature
	iAt := func(vdd float64) float64 { return d.IonPerWidth(vdd, T) }
	if iAt(0.12) <= 0 {
		t.Fatalf("drive must stay positive just above threshold")
	}
	if iAt(0.12) >= iAt(0.3) {
		t.Fatalf("drive must fall steeply approaching the threshold")
	}
}

func TestDelayMetric(t *testing.T) {
	d := BaseLab().MustForNode(35)
	T := units.RoomTemperature
	// Delay falls as supply rises.
	if d.DelayMetric(0.3, T, 4) <= d.DelayMetric(0.6, T, 4) {
		t.Fatalf("delay must fall with supply")
	}
	// A deeply cut-off device still conducts in subthreshold (the model is
	// smooth), but its delay must be astronomically larger.
	if d.WithVth(2).DelayMetric(0.6, T, 4) < 1e6*d.DelayMetric(0.6, T, 4) {
		t.Fatalf("cut-off device must be many orders of magnitude slower")
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	base := BaseLab().MustForNode(100)
	mutations := []func(*Device){
		func(d *Device) { d.LeffM = 0 },
		func(d *Device) { d.ToxPhysicalM = -1 },
		func(d *Device) { d.MobilityM2PerVs = 0 },
		func(d *Device) { d.VsatMPerS = 0 },
		func(d *Device) { d.RsOhmM = -1 },
		func(d *Device) { d.SubthresholdSwing300K = 0 },
		func(d *Device) { d.IoffPrefactorAPerM = 0 },
		func(d *Device) { d.VddRef = 0 },
	}
	for i, mutate := range mutations {
		d := *base
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestCalibrateMobilityErrors(t *testing.T) {
	d := BaseLab().MustForNode(100)
	if _, err := CalibrateMobility(d, 1e9, 1.2, 300); err == nil {
		t.Fatalf("unreachable target must error")
	}
	if _, err := CalibrateMobility(d, 1e-9, 1.2, 300); err == nil {
		t.Fatalf("trivially met target must error")
	}
}

func TestIonOverIoff(t *testing.T) {
	d := BaseLab().MustForNode(100)
	r := d.IonOverIoff(1.2, units.RoomTemperature)
	// 750 µA/µm over 26 nA/µm ≈ 29k.
	if r < 1e4 || r > 1e5 {
		t.Fatalf("Ion/Ioff = %g, expected ~3e4 at 100 nm", r)
	}
}

func TestPolarityString(t *testing.T) {
	if NMOS.String() != "NMOS" || PMOS.String() != "PMOS" {
		t.Fatalf("polarity strings broken")
	}
}

// TestForNodeHitAllocations pins that a calibrated node's lookup
// allocates nothing: it returns the cached device itself.
func TestForNodeHitAllocations(t *testing.T) {
	lab := BaseLab()
	lab.MustForNode(70)
	if n := testing.AllocsPerRun(100, func() { lab.MustForNode(70) }); n != 0 {
		t.Errorf("ForNode hit allocates %.0f times, want 0", n)
	}
}
