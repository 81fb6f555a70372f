package busplan

import (
	"fmt"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/signaling"
)

// testRoutes builds a realistic mix: latency-critical short hops, relaxed
// cross-chip buses, and a high-activity datapath bus.
func testRoutes(nodeNM int) []Route {
	node := itrs.Base().MustNode(nodeNM)
	period := 1 / node.ClockHz
	var out []Route
	for i := 0; i < 8; i++ {
		// Latency-critical: 4 mm in 1.5 cycles — only repeaters make it.
		out = append(out, Route{
			Name: fmt.Sprintf("hop%d", i), LengthM: 4e-3,
			LatencyBudgetS: 1.5 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 16; i++ {
		out = append(out, Route{
			Name: fmt.Sprintf("bus%d", i), LengthM: 8e-3,
			LatencyBudgetS: 20 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 8; i++ {
		out = append(out, Route{
			Name: fmt.Sprintf("dp%d", i), LengthM: 5e-3,
			LatencyBudgetS: 8 * period, ToggleHz: 0.4 * node.ClockHz,
		})
	}
	return out
}

func TestAssignMixesPrimitives(t *testing.T) {
	p, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Assign(testRoutes(50))
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.SchemeCounts()
	// Tight-latency hops need repeaters; relaxed buses go low-swing.
	if counts[signaling.FullSwingRepeated] == 0 {
		t.Fatalf("latency-critical hops must use repeated CMOS: %v", counts)
	}
	if counts[signaling.LowSwing]+counts[signaling.DifferentialLowSwing] == 0 {
		t.Fatalf("relaxed buses must adopt low-swing primitives: %v", counts)
	}
	// Every choice meets its budget.
	for _, c := range plan.Choices {
		if c.DelayS > c.Route.LatencyBudgetS {
			t.Fatalf("route %s misses its budget", c.Route.Name)
		}
		if c.PowerW <= 0 {
			t.Fatalf("route %s has non-positive power", c.Route.Name)
		}
	}
	// The mixed plan saves power over all-repeated-CMOS.
	if plan.Saving <= 0.2 {
		t.Fatalf("plan saving = %.0f%%, expected a substantial win", plan.Saving*100)
	}
}

func TestAssignLatencyForcesRepeaters(t *testing.T) {
	p, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	node := itrs.Base().MustNode(50)
	tight := []Route{{
		Name: "critical", LengthM: 10e-3,
		LatencyBudgetS: 8 / node.ClockHz, ToggleHz: 0.15 * node.ClockHz,
	}}
	plan, err := p.Assign(tight)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Choices[0].Scheme != signaling.FullSwingRepeated {
		t.Fatalf("a tight budget on a long route must force repeaters, got %v", plan.Choices[0].Scheme)
	}
	if plan.Choices[0].Repeaters == 0 {
		t.Fatalf("repeated choice must count its repeaters")
	}
}

func TestAssignInfeasibleRoute(t *testing.T) {
	p, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	node := itrs.Base().MustNode(50)
	impossible := []Route{{
		Name: "warp", LengthM: 18e-3,
		LatencyBudgetS: 0.5 / node.ClockHz, // half a cycle across the die
		ToggleHz:       0.15 * node.ClockHz,
	}}
	if _, err := p.Assign(impossible); err == nil {
		t.Fatalf("an impossible budget must be reported, not silently violated")
	}
	bad := []Route{{Name: "zero", LengthM: 0, LatencyBudgetS: 1e-9}}
	if _, err := p.Assign(bad); err == nil {
		t.Fatalf("zero-length route must error")
	}
}

func TestTrackBudgetRepair(t *testing.T) {
	free, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	routes := testRoutes(50)
	unbounded, err := free.Assign(routes)
	if err != nil {
		t.Fatal(err)
	}
	// Now constrain tracks below the unbounded plan's usage.
	tight, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	tight.TrackBudget = unbounded.TotalTracks - 2
	constrained, err := tight.Assign(routes)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.TotalTracks > tight.TrackBudget+1e-9 {
		t.Fatalf("budget violated: %.2f > %.2f", constrained.TotalTracks, tight.TrackBudget)
	}
	if constrained.TotalPowerW < unbounded.TotalPowerW {
		t.Fatalf("constraining tracks cannot reduce power")
	}
	// Impossible budget errors.
	hopeless, _ := NewPlannerIn(device.BaseLab(), 50)
	hopeless.TrackBudget = float64(len(routes)) * 0.5
	if _, err := hopeless.Assign(routes); err == nil {
		t.Fatalf("unreachable track budget must error")
	}
}

func TestSwingSelectionIncludesMargin(t *testing.T) {
	p, err := NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	node := itrs.Base().MustNode(50)
	relaxed := []Route{{
		Name: "lazy", LengthM: 8e-3,
		LatencyBudgetS: 30 / node.ClockHz, ToggleHz: 0.1 * node.ClockHz,
	}}
	plan, err := p.Assign(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Choices[0]
	if c.Scheme == signaling.FullSwingRepeated {
		t.Fatalf("a relaxed route should adopt a low-swing primitive")
	}
	min, err := signaling.MinTolerableSwing(p.line, node.Vdd, c.Scheme, true, p.RequiredSNR)
	if err != nil {
		t.Fatal(err)
	}
	if c.SwingFrac < min {
		t.Fatalf("selected swing %.3f below the noise-limited minimum %.3f", c.SwingFrac, min)
	}
	if c.SwingFrac > min*p.SwingMargin+1e-9 {
		t.Fatalf("selected swing %.3f exceeds minimum+margin", c.SwingFrac)
	}
}

func TestNewPlannerErrors(t *testing.T) {
	if _, err := NewPlannerIn(device.BaseLab(), 65); err == nil {
		t.Fatalf("unknown node must error")
	}
}
