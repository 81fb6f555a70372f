package busplan_test

import (
	"fmt"

	"nanometer/internal/busplan"
	"nanometer/internal/device"
	"nanometer/internal/itrs"
)

// The conclusion-#2 EDA tool: a latency-critical hop keeps repeaters, a
// relaxed bus adopts a differential low-swing primitive, and the plan
// undercuts the all-repeated baseline.
func ExamplePlanner_Assign() {
	node := itrs.Base().MustNode(50)
	period := 1 / node.ClockHz
	p, err := busplan.NewPlannerIn(device.BaseLab(), 50)
	if err != nil {
		panic(err)
	}
	plan, err := p.Assign([]busplan.Route{
		{Name: "hot-hop", LengthM: 4e-3, LatencyBudgetS: 1.5 * period, ToggleHz: 0.3 * node.ClockHz},
		{Name: "lazy-bus", LengthM: 10e-3, LatencyBudgetS: 25 * period, ToggleHz: 0.1 * node.ClockHz},
	})
	if err != nil {
		panic(err)
	}
	for _, c := range plan.Choices {
		fmt.Printf("%s → %v\n", c.Route.Name, c.Scheme)
	}
	fmt.Printf("saves power: %v\n", plan.Saving > 0)
	// Output:
	// hot-hop → full-swing repeated CMOS
	// lazy-bus → differential low-swing
	// saves power: true
}
