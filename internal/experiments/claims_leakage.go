package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/result"
	"nanometer/internal/stackvth"
	"nanometer/internal/standby"
)

// StackVth is the C10 experiment at 70 nm: the §3.3 intra-cell multi-Vth
// idea — different thresholds inside one stacked cell buy substantial
// leakage savings at small delay cost, leveraging the state dependence of
// leakage without sleep transistors. It explores every 2-stack mix
// (all-low, bottom-high, top-high, all-high) and picks the largest saving
// within a 10 % delay budget.
func StackVth(lab *device.Lab, _ int) (*result.Result, error) {
	const nodeNM = 70
	d, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	const load = 5e-15
	as, err := stackvth.ExploreIn(lab, nodeNM, 2, 4*d.LeffM, d.Vth0, d.Vth0+0.1, load)
	if err != nil {
		return nil, err
	}
	best, err := stackvth.BestUnderPenalty(as, 0.10)
	if err != nil {
		return nil, err
	}
	st, err := stackvth.NewStackIn(lab, nodeNM, 2, 4*d.LeffM, []float64{d.Vth0, d.Vth0})
	if err != nil {
		return nil, err
	}
	bothOff, err := st.LeakageForState([]bool{false, false})
	if err != nil {
		return nil, err
	}
	singleOff, err := st.LeakageForState([]bool{true, false})
	if err != nil {
		return nil, err
	}
	avg, err := st.AverageLeakage()
	if err != nil {
		return nil, err
	}
	_, parked, err := st.MinLeakageVector()
	if err != nil {
		return nil, err
	}
	// stack_factor is the all-off/single-off leakage ratio of the all-low
	// stack (the classic stack effect); parked_saving the input-vector-
	// control win: best state vs the state average.
	var stackFactor, parkedSaving float64
	if singleOff > 0 {
		stackFactor = bothOff / singleOff
	}
	if avg > 0 {
		parkedSaving = 1 - parked/avg
	}
	c := &result.Claim{}
	c.Num("node_nm", nodeNM, "nm").
		Num("n_assignments", float64(len(as)), "")
	for i, a := range as {
		k := fmt.Sprintf("a%d_", i)
		c.Num(k+"leakage_saving", a.LeakageSaving, "").
			Num(k+"delay_penalty", a.DelayPenalty, "")
	}
	c.Num("best_high_count", float64(best.HighCount()), "").
		Num("best_leakage_saving", best.LeakageSaving, "").
		Num("stack_factor", stackFactor, "").
		Num("parked_saving", parkedSaving, "")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}

// Standby is the C11 experiment: the §3.2.1 standby-leakage technique
// comparison at the start (180 nm) and end (35 nm) of the roadmap, with
// the paper's scalability judgments.
func Standby(lab *device.Lab, _ int) (*result.Result, error) {
	const width = 1e-3
	at180, err := standby.CompareIn(lab, 180, width)
	if err != nil {
		return nil, err
	}
	at35, err := standby.CompareIn(lab, 35, width)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "C11. Standby-leakage techniques (§3.2.1), 180 nm vs 35 nm",
		Headers: []string{"technique", "standby@180", "standby@35", "active", "delay", "area", "scales?"},
	}
	// The techniques the model flags as not scaling — the paper's list is
	// substrate-bias-controlled Vth (and domino styles, which are outside
	// this model).
	var nonScalable []string
	for i, a := range at35 {
		b := at180[i]
		scal := "yes"
		if !a.Scalable {
			scal = "NO"
			nonScalable = append(nonScalable, fmt.Sprint(a.Technique))
		}
		t.AddRow(a.Technique.String(),
			fmt.Sprintf("-%.1f%%", b.StandbyReduction*100),
			fmt.Sprintf("-%.1f%%", a.StandbyReduction*100),
			fmt.Sprintf("-%.1f%%", a.ActiveReduction*100),
			fmt.Sprintf("+%.1f%%", a.DelayPenalty*100),
			fmt.Sprintf("+%.1f%%", a.AreaOverhead*100),
			scal)
	}
	t.Notes = append(t.Notes,
		"paper: body-bias-controlled Vth \"does not scale well\"; dual-Vth is the only technique in current high-end MPUs",
		fmt.Sprintf("non-scalable at 35 nm: %v", nonScalable))
	res := &result.Result{}
	res.AddTable(t)
	return res, nil
}
