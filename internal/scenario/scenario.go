// Package scenario turns the fixed ITRS-2000 roadmap into a parameter: a
// Scenario is a named, validated set of overrides and extensions over the
// base itrs table — supply, oxide, threshold anchors, thermal budget, wire
// geometry, whole new nodes — loadable from JSON, optionally expanded into a
// generated sweep ("Vdd ±20 % in 9 steps at every node"). Resolving a
// Scenario yields a device.Lab the model stack computes against; the nil
// Scenario means the base roadmap and reproduces today's bytes exactly.
//
// Scenarios cross a trust boundary (files on disk, POST bodies), so Parse
// is strict: unknown fields are rejected, every override is bounds-checked,
// sizes are capped, and a parsed scenario round-trips through encode/decode
// byte-identically (FuzzScenarioParse pins all of this).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"sync"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
)

// MaxFileBytes bounds a scenario document; anything larger is hostile.
const MaxFileBytes = 1 << 20

// MaxNodes bounds the override/extension list of one scenario.
const MaxNodes = 32

// MaxSweepSteps bounds a generated sweep.
const MaxSweepSteps = 33

// MaxExpectations bounds the scenario-supplied claim checks.
const MaxExpectations = 64

// nameRE admits DNS-label-ish scenario names: bounded, metrics-safe,
// filename-safe. Sweep variants append "/<param>=<factor>" internally.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,47}$`)

// Scenario is a named roadmap variation. The zero field set (no node specs,
// no sweep) is valid and resolves to the base table under the scenario's
// name; a nil *Scenario everywhere in the repo means "base roadmap,
// unlabeled" and is the byte-identity case.
type Scenario struct {
	// Name identifies the scenario in cache keys, metrics labels, and
	// output; lowercase [a-z0-9._-], ≤ 48 chars.
	Name string `json:"name"`
	// Title is an optional human headline.
	Title string `json:"title,omitempty"`
	// Notes records provenance (papers, assumptions).
	Notes []string `json:"notes,omitempty"`
	// Nodes lists per-node overrides (for drawn sizes present in the base
	// table) and extensions (new drawn sizes, seeded from the nearest base
	// node and requiring vdd_v, tox_nm, and leff_nm at minimum).
	Nodes []NodeSpec `json:"nodes,omitempty"`
	// Sweep, when set, expands the scenario into a grid of variants.
	Sweep *Sweep `json:"sweep,omitempty"`
	// Expect carries scenario-appropriate claim checks: under a non-base
	// roadmap the paper's quoted numbers no longer apply, so artifacts drop
	// their paper checks and apply these instead.
	Expect []Expectation `json:"expect,omitempty"`

	resolveOnce sync.Once
	resolveLab  *device.Lab
	resolveErr  error
}

// NodeSpec overrides or extends one technology node. All fields except
// NodeNM are optional pointers — nil keeps the base (or seeded) value.
// Units are the human-friendly ones of the paper's tables, converted to SI
// during resolution.
type NodeSpec struct {
	// NodeNM names the node: drawn feature size in nanometers.
	NodeNM int `json:"node_nm"`
	// Year is the production year (extensions should set it).
	Year *int `json:"year,omitempty"`

	VddV    *float64 `json:"vdd_v,omitempty"`
	VddAltV *float64 `json:"vdd_alt_v,omitempty"`
	ToxNM   *float64 `json:"tox_nm,omitempty"`
	LeffNM  *float64 `json:"leff_nm,omitempty"`
	// RsOhmUM is the parasitic source resistance in Ω·µm.
	RsOhmUM *float64 `json:"rs_ohm_um,omitempty"`

	IonTargetUAPerUM *float64 `json:"ion_target_ua_per_um,omitempty"`
	IoffNAPerUM      *float64 `json:"ioff_na_per_um,omitempty"`

	JunctionTempC *float64 `json:"junction_temp_c,omitempty"`
	AmbientTempC  *float64 `json:"ambient_temp_c,omitempty"`
	ThetaJA       *float64 `json:"theta_ja_c_per_w,omitempty"`

	MaxPowerW     *float64 `json:"max_power_w,omitempty"`
	DieAreaMM2    *float64 `json:"die_area_mm2,omitempty"`
	ClockGHz      *float64 `json:"clock_ghz,omitempty"`
	LocalClockGHz *float64 `json:"local_clock_ghz,omitempty"`

	TotalPads         *int     `json:"total_pads,omitempty"`
	PowerBumpFraction *float64 `json:"power_bump_fraction,omitempty"`
	BumpPitchMinUM    *float64 `json:"bump_pitch_min_um,omitempty"`
	BumpMaxCurrentA   *float64 `json:"bump_max_current_a,omitempty"`

	TopMetalMinWidthUM  *float64 `json:"top_metal_min_width_um,omitempty"`
	TopMetalThicknessUM *float64 `json:"top_metal_thickness_um,omitempty"`
	WirePitchGlobalUM   *float64 `json:"wire_pitch_global_um,omitempty"`
	WirePitchLocalUM    *float64 `json:"wire_pitch_local_um,omitempty"`

	LogicTransistorsM *float64 `json:"logic_transistors_m,omitempty"`

	// VthAnchorV and DIBL are the device-model parameters outside the
	// roadmap table (paper Table 2 anchors). Extensions inherit the nearest
	// base node's values unless set.
	VthAnchorV *float64 `json:"vth_anchor_v,omitempty"`
	DIBL       *float64 `json:"dibl_v_per_v,omitempty"`
}

// Sweep generates a one-parameter grid: Steps multipliers spaced evenly
// over [1−SpanPct/100, 1+SpanPct/100] applied to Param at every node (or
// just Nodes when non-empty).
type Sweep struct {
	// Param is one of "vdd", "tox", "theta_ja", "clock", "max_power".
	Param string `json:"param"`
	// Steps is the grid size (1–33); 9 gives the paper-style ±20 % in 9.
	Steps int `json:"steps"`
	// SpanPct is the half-width of the multiplier range in percent.
	SpanPct float64 `json:"span_pct"`
	// Nodes restricts the sweep to the listed drawn sizes (empty = all).
	Nodes []int `json:"nodes,omitempty"`
}

// sweepParams maps a sweep parameter to the node fields it scales.
var sweepParams = map[string]func(n *itrs.Node, factor float64){
	"vdd": func(n *itrs.Node, f float64) {
		n.Vdd *= f
		n.VddAlt *= f
	},
	"tox":      func(n *itrs.Node, f float64) { n.ToxPhysicalM *= f },
	"theta_ja": func(n *itrs.Node, f float64) { n.ThetaJA *= f },
	"clock": func(n *itrs.Node, f float64) {
		n.ClockHz *= f
		n.LocalClockHz *= f
	},
	"max_power": func(n *itrs.Node, f float64) { n.MaxPowerW *= f },
}

// SweepParamNames lists the valid sweep parameters, sorted.
func SweepParamNames() []string {
	return []string{"clock", "max_power", "theta_ja", "tox", "vdd"}
}

// Expectation is one scenario-appropriate claim check: artifact's claim
// finding Check must land within RelTol of Value.
type Expectation struct {
	// Artifact is the artifact ID the check applies to (e.g. "c7").
	Artifact string `json:"artifact"`
	// Check is the finding key within the artifact's claims.
	Check string `json:"check"`
	// Value is the expected value in the finding's unit; RelTol the allowed
	// relative deviation.
	Value  float64 `json:"value"`
	RelTol float64 `json:"rel_tol"`
}

// Parse decodes and validates one scenario document. It is strict: unknown
// fields, oversized documents, out-of-range values, and duplicate nodes are
// all errors. Hostile input must error, never panic (FuzzScenarioParse).
func Parse(data []byte) (*Scenario, error) {
	if len(data) > MaxFileBytes {
		return nil, fmt.Errorf("scenario: document is %d bytes, limit %d", len(data), MaxFileBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// A second document in the same stream is malformed input, not data.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// MustParse is Parse for known-good literals (tests, guards).
func MustParse(data string) *Scenario {
	s, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structure and ranges. Resolution errors (a node set the
// device calibration cannot hit, say) surface later from Resolve; Validate
// rejects everything that can be rejected without building the table.
func (s *Scenario) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must match %s", s.Name, nameRE)
	}
	if len(s.Nodes) > MaxNodes {
		return fmt.Errorf("scenario %s: %d node specs, limit %d", s.Name, len(s.Nodes), MaxNodes)
	}
	base := itrs.Base()
	seen := make(map[int]bool, len(s.Nodes))
	for i := range s.Nodes {
		spec := &s.Nodes[i]
		if spec.NodeNM < 10 || spec.NodeNM > 1000 {
			return fmt.Errorf("scenario %s: node %d nm outside [10, 1000]", s.Name, spec.NodeNM)
		}
		if seen[spec.NodeNM] {
			return fmt.Errorf("scenario %s: node %d nm listed twice", s.Name, spec.NodeNM)
		}
		seen[spec.NodeNM] = true
		if err := spec.validateRanges(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if _, err := base.ByNode(spec.NodeNM); err != nil {
			// Extension node: needs enough substance to mean something.
			if spec.VddV == nil || spec.ToxNM == nil || spec.LeffNM == nil {
				return fmt.Errorf("scenario %s: extension node %d nm must set vdd_v, tox_nm, and leff_nm", s.Name, spec.NodeNM)
			}
		}
	}
	if s.Sweep != nil {
		if err := s.Sweep.validate(seen); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if len(s.Expect) > MaxExpectations {
		return fmt.Errorf("scenario %s: %d expectations, limit %d", s.Name, len(s.Expect), MaxExpectations)
	}
	for _, e := range s.Expect {
		if e.Artifact == "" || e.Check == "" {
			return fmt.Errorf("scenario %s: expectation needs artifact and check keys", s.Name)
		}
		if !(e.RelTol > 0) || e.RelTol > 10 || math.IsInf(e.RelTol, 0) {
			return fmt.Errorf("scenario %s: expectation %s/%s rel_tol %g outside (0, 10]", s.Name, e.Artifact, e.Check, e.RelTol)
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return fmt.Errorf("scenario %s: expectation %s/%s value must be finite", s.Name, e.Artifact, e.Check)
		}
	}
	return nil
}

// validateRanges bounds every override. The bounds mirror itrs.Node.Validate
// in the spec's human units; resolution re-validates the assembled node, so
// these exist to produce pointed errors naming the JSON field.
func (spec *NodeSpec) validateRanges() error {
	type rng struct {
		field string
		v     *float64
		lo    float64
		hi    float64
	}
	checks := []rng{
		{"vdd_v", spec.VddV, 0.2, 5},
		{"vdd_alt_v", spec.VddAltV, 0.2, 5},
		{"tox_nm", spec.ToxNM, 0.2, 20},
		{"leff_nm", spec.LeffNM, 3, 500},
		{"rs_ohm_um", spec.RsOhmUM, 0, 2000},
		{"ion_target_ua_per_um", spec.IonTargetUAPerUM, 50, 5000},
		{"ioff_na_per_um", spec.IoffNAPerUM, 0, 1e5},
		{"junction_temp_c", spec.JunctionTempC, 25, 250},
		{"ambient_temp_c", spec.AmbientTempC, -60, 250},
		{"theta_ja_c_per_w", spec.ThetaJA, 0.01, 100},
		{"max_power_w", spec.MaxPowerW, 0.001, 10e3},
		{"die_area_mm2", spec.DieAreaMM2, 0.1, 10e3},
		{"clock_ghz", spec.ClockGHz, 0.001, 1000},
		{"local_clock_ghz", spec.LocalClockGHz, 0.001, 1000},
		{"power_bump_fraction", spec.PowerBumpFraction, 0.01, 1},
		{"bump_pitch_min_um", spec.BumpPitchMinUM, 1, 10e3},
		{"bump_max_current_a", spec.BumpMaxCurrentA, 1e-4, 100},
		{"top_metal_min_width_um", spec.TopMetalMinWidthUM, 0.005, 100},
		{"top_metal_thickness_um", spec.TopMetalThicknessUM, 0.005, 100},
		{"wire_pitch_global_um", spec.WirePitchGlobalUM, 0.01, 100},
		{"wire_pitch_local_um", spec.WirePitchLocalUM, 0.005, 100},
		{"logic_transistors_m", spec.LogicTransistorsM, 0.01, 1e6},
		{"vth_anchor_v", spec.VthAnchorV, -0.2, 1.5},
		{"dibl_v_per_v", spec.DIBL, 0, 0.5},
	}
	for _, c := range checks {
		if c.v == nil {
			continue
		}
		v := *c.v
		if math.IsNaN(v) || v < c.lo || v > c.hi {
			return fmt.Errorf("node %d nm: %s = %g outside [%g, %g]", spec.NodeNM, c.field, v, c.lo, c.hi)
		}
	}
	if spec.Year != nil && (*spec.Year < 1990 || *spec.Year > 2100) {
		return fmt.Errorf("node %d nm: year = %d outside [1990, 2100]", spec.NodeNM, *spec.Year)
	}
	if spec.TotalPads != nil && (*spec.TotalPads < 4 || *spec.TotalPads > 1e6) {
		return fmt.Errorf("node %d nm: total_pads = %d outside [4, 1000000]", spec.NodeNM, *spec.TotalPads)
	}
	return nil
}

func (sw *Sweep) validate(specNodes map[int]bool) error {
	if _, ok := sweepParams[sw.Param]; !ok {
		return fmt.Errorf("sweep param %q not one of %v", sw.Param, SweepParamNames())
	}
	if sw.Steps < 1 || sw.Steps > MaxSweepSteps {
		return fmt.Errorf("sweep steps %d outside [1, %d]", sw.Steps, MaxSweepSteps)
	}
	if !(sw.SpanPct > 0) || sw.SpanPct > 50 {
		return fmt.Errorf("sweep span_pct %g outside (0, 50]", sw.SpanPct)
	}
	base := itrs.Base()
	for _, nm := range sw.Nodes {
		if _, err := base.ByNode(nm); err != nil && !specNodes[nm] {
			return fmt.Errorf("sweep node %d nm is neither a base node nor defined by the scenario", nm)
		}
	}
	return nil
}

// Canonical returns the scenario's canonical encoding: the compact JSON of
// the validated struct. Parse(Canonical(s)) reproduces the same canonical
// bytes, which is the round-trip property the fuzzer pins.
func (s *Scenario) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario has no unmarshalable fields; this is unreachable on a
		// validated value.
		panic(err)
	}
	return b
}

// Key returns a short stable digest of the scenario's full content, used to
// thread scenario identity through the compute-cache key (and with it the
// disk store, singleflight, and ETags).
func (s *Scenario) Key() string {
	h := fnv.New64a()
	h.Write(s.Canonical())
	return fmt.Sprintf("%016x", h.Sum64())
}

// Variants expands the sweep into concrete scenarios, one per multiplier
// step: each variant carries the swept parameter as explicit node overrides
// (resolved value × factor), a derived name ("<name>/vdd=0.80"), and no
// sweep of its own. Without a sweep the scenario itself is the only
// variant. Expectations do not propagate to swept variants — they describe
// the unswept operating point.
func (s *Scenario) Variants() ([]*Scenario, error) {
	if s.Sweep == nil {
		return []*Scenario{s}, nil
	}
	apply, ok := sweepParams[s.Sweep.Param]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown sweep param %q", s.Name, s.Sweep.Param)
	}
	lab, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	targets := s.Sweep.Nodes
	if len(targets) == 0 {
		targets = lab.NodesNM()
	}
	span := s.Sweep.SpanPct / 100
	out := make([]*Scenario, 0, s.Sweep.Steps)
	for i := 0; i < s.Sweep.Steps; i++ {
		factor := 1.0
		if s.Sweep.Steps > 1 {
			factor = 1 - span + 2*span*float64(i)/float64(s.Sweep.Steps-1)
		}
		v := &Scenario{
			Name:  fmt.Sprintf("%s/%s=%.3f", s.Name, s.Sweep.Param, factor),
			Title: s.Title,
			Notes: s.Notes,
		}
		// Start from the parent's explicit specs so non-swept overrides and
		// extension nodes survive into every variant.
		v.Nodes = append(v.Nodes, s.Nodes...)
		for _, nm := range targets {
			node, err := lab.Node(nm)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			scaled := node
			apply(&scaled, factor)
			v.Nodes = mergeSpec(v.Nodes, overrideFor(s.Sweep.Param, scaled))
		}
		out = append(out, v)
	}
	return out, nil
}

// overrideFor captures the swept parameter's scaled value as a NodeSpec
// override in spec units.
func overrideFor(param string, n itrs.Node) NodeSpec {
	spec := NodeSpec{NodeNM: n.DrawnNM}
	switch param {
	case "vdd":
		spec.VddV = ptr(n.Vdd)
		if n.VddAlt != 0 {
			spec.VddAltV = ptr(n.VddAlt)
		}
	case "tox":
		spec.ToxNM = ptr(n.ToxPhysicalM * 1e9)
	case "theta_ja":
		spec.ThetaJA = ptr(n.ThetaJA)
	case "clock":
		spec.ClockGHz = ptr(n.ClockHz * 1e-9)
		spec.LocalClockGHz = ptr(n.LocalClockHz * 1e-9)
	case "max_power":
		spec.MaxPowerW = ptr(n.MaxPowerW)
	}
	return spec
}

// mergeSpec folds the override into an existing spec for the same node, or
// appends a new one.
func mergeSpec(specs []NodeSpec, add NodeSpec) []NodeSpec {
	for i := range specs {
		if specs[i].NodeNM != add.NodeNM {
			continue
		}
		merged := specs[i]
		if add.VddV != nil {
			merged.VddV = add.VddV
		}
		if add.VddAltV != nil {
			merged.VddAltV = add.VddAltV
		}
		if add.ToxNM != nil {
			merged.ToxNM = add.ToxNM
		}
		if add.ThetaJA != nil {
			merged.ThetaJA = add.ThetaJA
		}
		if add.ClockGHz != nil {
			merged.ClockGHz = add.ClockGHz
		}
		if add.LocalClockGHz != nil {
			merged.LocalClockGHz = add.LocalClockGHz
		}
		if add.MaxPowerW != nil {
			merged.MaxPowerW = add.MaxPowerW
		}
		specs[i] = merged
		return specs
	}
	return append(specs, add)
}

func ptr(v float64) *float64 { return &v }

// ExpectFor returns the scenario's expectations for one artifact, in
// declaration order. A nil receiver has none.
func (s *Scenario) ExpectFor(artifactID string) []Expectation {
	if s == nil {
		return nil
	}
	var out []Expectation
	for _, e := range s.Expect {
		if e.Artifact == artifactID {
			out = append(out, e)
		}
	}
	return out
}

// Resolve builds (once; memoized) the device laboratory for the scenario:
// base table + overrides + extensions, revalidated, with device anchors
// carried over or supplied by the specs. A nil receiver resolves to the
// base laboratory.
func (s *Scenario) Resolve() (*device.Lab, error) {
	if s == nil {
		return device.BaseLab(), nil
	}
	s.resolveOnce.Do(func() { s.resolveLab, s.resolveErr = s.build() })
	return s.resolveLab, s.resolveErr
}

func (s *Scenario) build() (*device.Lab, error) {
	base := itrs.Base()
	nodes := base.All()
	index := make(map[int]int, len(nodes))
	for i, n := range nodes {
		index[n.DrawnNM] = i
	}
	params := make(map[int]device.Params)
	for i := range s.Nodes {
		spec := &s.Nodes[i]
		var n *itrs.Node
		if j, ok := index[spec.NodeNM]; ok {
			n = &nodes[j]
		} else {
			// Extension: seed from the nearest transcribed node, then
			// override. Device anchors seed the same way.
			seed := base.Nearest(spec.NodeNM)
			if p, ok := device.BaseParams(seed.DrawnNM); ok {
				params[spec.NodeNM] = p
			}
			seed.DrawnNM = spec.NodeNM
			nodes = append(nodes, seed)
			index[spec.NodeNM] = len(nodes) - 1
			n = &nodes[len(nodes)-1]
		}
		spec.apply(n)
		if spec.VthAnchorV != nil || spec.DIBL != nil {
			p, ok := params[spec.NodeNM]
			if !ok {
				if bp, has := device.BaseParams(spec.NodeNM); has {
					p = bp
				}
			}
			if spec.VthAnchorV != nil {
				p.VthAnchor = *spec.VthAnchorV
			}
			if spec.DIBL != nil {
				p.DIBL = *spec.DIBL
			}
			params[spec.NodeNM] = p
		}
	}
	table, err := itrs.NewTable(s.Name, nodes)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	lab, err := device.NewLab(table, params)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return lab, nil
}

// apply folds the spec's overrides into the node, converting units.
func (spec *NodeSpec) apply(n *itrs.Node) {
	if spec.Year != nil {
		n.Year = *spec.Year
	}
	setF := func(dst *float64, src *float64, scale float64) {
		if src != nil {
			*dst = *src * scale
		}
	}
	setF(&n.Vdd, spec.VddV, 1)
	setF(&n.VddAlt, spec.VddAltV, 1)
	setF(&n.ToxPhysicalM, spec.ToxNM, 1e-9)
	setF(&n.LeffM, spec.LeffNM, 1e-9)
	setF(&n.RsOhmM, spec.RsOhmUM, 1e-6)
	// µA/µm is numerically A/m; nA/µm is 1e-3 A/m.
	setF(&n.IonTargetAPerM, spec.IonTargetUAPerUM, 1)
	setF(&n.IoffITRSAPerM, spec.IoffNAPerUM, 1e-3)
	setF(&n.JunctionTempC, spec.JunctionTempC, 1)
	setF(&n.AmbientTempC, spec.AmbientTempC, 1)
	setF(&n.ThetaJA, spec.ThetaJA, 1)
	setF(&n.MaxPowerW, spec.MaxPowerW, 1)
	setF(&n.DieAreaM2, spec.DieAreaMM2, 1e-6)
	setF(&n.ClockHz, spec.ClockGHz, 1e9)
	setF(&n.LocalClockHz, spec.LocalClockGHz, 1e9)
	if spec.TotalPads != nil {
		n.TotalPads = *spec.TotalPads
	}
	setF(&n.PowerBumpFraction, spec.PowerBumpFraction, 1)
	setF(&n.BumpPitchMinM, spec.BumpPitchMinUM, 1e-6)
	setF(&n.BumpMaxCurrentA, spec.BumpMaxCurrentA, 1)
	setF(&n.TopMetalMinWidthM, spec.TopMetalMinWidthUM, 1e-6)
	setF(&n.TopMetalThicknessM, spec.TopMetalThicknessUM, 1e-6)
	setF(&n.WirePitchGlobalM, spec.WirePitchGlobalUM, 1e-6)
	setF(&n.WirePitchLocalM, spec.WirePitchLocalUM, 1e-6)
	setF(&n.LogicTransistorsM, spec.LogicTransistorsM, 1)
}
