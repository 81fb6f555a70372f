// Package scenario turns the fixed ITRS-2000 roadmap into a parameter: a
// Scenario is a named, validated set of overrides and extensions over the
// base itrs table — supply, oxide, threshold anchors, thermal budget, wire
// geometry, whole new nodes — loadable from JSON, optionally expanded into a
// generated sweep ("Vdd ±20 % in 9 steps at every node"). Resolving a
// Scenario yields a device.Lab the model stack computes against; the nil
// Scenario means the base roadmap and reproduces today's bytes exactly.
//
// Scenarios cross a trust boundary (files on disk, POST bodies), so Parse
// takes internal/doc's strict path: unknown fields are rejected, sizes are
// capped, and a parsed scenario round-trips through encode/decode
// byte-identically. Every override is bounds-checked against its row of
// the field table (FuzzScenarioParse pins all of this).
package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nanometer/internal/device"
	"nanometer/internal/doc"
	"nanometer/internal/itrs"
	"nanometer/internal/result"
)

// MaxFileBytes bounds a scenario document; anything larger is hostile.
const MaxFileBytes = doc.MaxBytes

// MaxNodes bounds the override/extension list of one scenario.
const MaxNodes = 32

// MaxSweepSteps bounds a generated sweep.
const MaxSweepSteps = 33

// MaxExpectations bounds the scenario-supplied claim checks.
const MaxExpectations = 64

// Scenario is a named roadmap variation. The zero field set (no node specs,
// no sweep) is valid and resolves to the base table under the scenario's
// name; a nil *Scenario everywhere in the repo means "base roadmap,
// unlabeled" and is the byte-identity case.
type Scenario struct {
	// Name identifies the scenario in cache keys, metrics labels, and
	// output; lowercase [a-z0-9._-], ≤ 48 chars. Sweep variants append
	// "/<param>=<factor>" internally.
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
	// roadmap the paper's quoted numbers no longer apply, so artifacts are
	// checked against these instead of the paper's table.
	Expect []Expectation `json:"expect,omitempty"`

	resolveOnce sync.Once
	resolveLab  *device.Lab
	resolveErr  error
	key         doc.Key
}

// NodeSpec overrides or extends one technology node. All fields except
// NodeNM are optional pointers — nil keeps the base (or seeded) value.
// Units are the human-friendly ones of the paper's tables, converted to SI
// during resolution. Each float roadmap override has one row in fields.
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

// field is one float roadmap override of NodeSpec: its JSON key, its
// allowed range in spec units, the multipliers from spec to SI units and
// back, and the NodeSpec and itrs.Node fields it links.
type field struct {
	key          string
	lo, hi       float64
	toSI, toSpec float64
	spec         func(*NodeSpec) **float64
	node         func(*itrs.Node) *float64
}

// fields lists NodeSpec's float roadmap overrides in validation order;
// Validate, resolution and sweep expansion loop over it. The ranges mirror
// itrs.Node.Validate in spec units (resolution re-validates the assembled
// node, so these exist to give errors naming the JSON key). toSpec is
// written out rather than derived as 1/toSI, so a swept value converts back
// by the same multiplication, bit for bit. µA/µm is numerically A/m; nA/µm
// is 1e-3 A/m.
var fields = []field{
	{"vdd_v", 0.2, 5, 1, 1, func(s *NodeSpec) **float64 { return &s.VddV }, func(n *itrs.Node) *float64 { return &n.Vdd }},
	{"vdd_alt_v", 0.2, 5, 1, 1, func(s *NodeSpec) **float64 { return &s.VddAltV }, func(n *itrs.Node) *float64 { return &n.VddAlt }},
	{"tox_nm", 0.2, 20, 1e-9, 1e9, func(s *NodeSpec) **float64 { return &s.ToxNM }, func(n *itrs.Node) *float64 { return &n.ToxPhysicalM }},
	{"leff_nm", 3, 500, 1e-9, 1e9, func(s *NodeSpec) **float64 { return &s.LeffNM }, func(n *itrs.Node) *float64 { return &n.LeffM }},
	{"rs_ohm_um", 0, 2000, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.RsOhmUM }, func(n *itrs.Node) *float64 { return &n.RsOhmM }},
	{"ion_target_ua_per_um", 50, 5000, 1, 1, func(s *NodeSpec) **float64 { return &s.IonTargetUAPerUM }, func(n *itrs.Node) *float64 { return &n.IonTargetAPerM }},
	{"ioff_na_per_um", 0, 1e5, 1e-3, 1e3, func(s *NodeSpec) **float64 { return &s.IoffNAPerUM }, func(n *itrs.Node) *float64 { return &n.IoffITRSAPerM }},
	{"junction_temp_c", 25, 250, 1, 1, func(s *NodeSpec) **float64 { return &s.JunctionTempC }, func(n *itrs.Node) *float64 { return &n.JunctionTempC }},
	{"ambient_temp_c", -60, 250, 1, 1, func(s *NodeSpec) **float64 { return &s.AmbientTempC }, func(n *itrs.Node) *float64 { return &n.AmbientTempC }},
	{"theta_ja_c_per_w", 0.01, 100, 1, 1, func(s *NodeSpec) **float64 { return &s.ThetaJA }, func(n *itrs.Node) *float64 { return &n.ThetaJA }},
	{"max_power_w", 0.001, 10e3, 1, 1, func(s *NodeSpec) **float64 { return &s.MaxPowerW }, func(n *itrs.Node) *float64 { return &n.MaxPowerW }},
	{"die_area_mm2", 0.1, 10e3, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.DieAreaMM2 }, func(n *itrs.Node) *float64 { return &n.DieAreaM2 }},
	{"clock_ghz", 0.001, 1000, 1e9, 1e-9, func(s *NodeSpec) **float64 { return &s.ClockGHz }, func(n *itrs.Node) *float64 { return &n.ClockHz }},
	{"local_clock_ghz", 0.001, 1000, 1e9, 1e-9, func(s *NodeSpec) **float64 { return &s.LocalClockGHz }, func(n *itrs.Node) *float64 { return &n.LocalClockHz }},
	{"power_bump_fraction", 0.01, 1, 1, 1, func(s *NodeSpec) **float64 { return &s.PowerBumpFraction }, func(n *itrs.Node) *float64 { return &n.PowerBumpFraction }},
	{"bump_pitch_min_um", 1, 10e3, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.BumpPitchMinUM }, func(n *itrs.Node) *float64 { return &n.BumpPitchMinM }},
	{"bump_max_current_a", 1e-4, 100, 1, 1, func(s *NodeSpec) **float64 { return &s.BumpMaxCurrentA }, func(n *itrs.Node) *float64 { return &n.BumpMaxCurrentA }},
	{"top_metal_min_width_um", 0.005, 100, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.TopMetalMinWidthUM }, func(n *itrs.Node) *float64 { return &n.TopMetalMinWidthM }},
	{"top_metal_thickness_um", 0.005, 100, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.TopMetalThicknessUM }, func(n *itrs.Node) *float64 { return &n.TopMetalThicknessM }},
	{"wire_pitch_global_um", 0.01, 100, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.WirePitchGlobalUM }, func(n *itrs.Node) *float64 { return &n.WirePitchGlobalM }},
	{"wire_pitch_local_um", 0.005, 100, 1e-6, 1e6, func(s *NodeSpec) **float64 { return &s.WirePitchLocalUM }, func(n *itrs.Node) *float64 { return &n.WirePitchLocalM }},
	{"logic_transistors_m", 0.01, 1e6, 1, 1, func(s *NodeSpec) **float64 { return &s.LogicTransistorsM }, func(n *itrs.Node) *float64 { return &n.LogicTransistorsM }},
}

// fieldByKey returns the row of fields with the given JSON key.
func fieldByKey(key string) *field {
	return &fields[slices.IndexFunc(fields, func(f field) bool { return f.key == key })]
}

// sweepParams maps a sweep parameter to the keys of the rows it scales.
var sweepParams = map[string][]string{
	"vdd":       {"vdd_v", "vdd_alt_v"},
	"tox":       {"tox_nm"},
	"theta_ja":  {"theta_ja_c_per_w"},
	"clock":     {"clock_ghz", "local_clock_ghz"},
	"max_power": {"max_power_w"},
}

// SweepParamNames lists the valid sweep parameters, sorted.
func SweepParamNames() []string {
	return []string{"clock", "max_power", "theta_ja", "tox", "vdd"}
}

// Expectation is one scenario-appropriate claim check on one artifact.
type Expectation struct {
	// Artifact is the artifact ID the check applies to (e.g. "c7").
	Artifact string `json:"artifact"`
	result.Expect
}

// Parse decodes and validates one scenario document. It is strict: unknown
// fields, oversized documents, out-of-range values, and duplicate nodes are
// all errors. Hostile input must error, never panic (FuzzScenarioParse).
func Parse(data []byte) (*Scenario, error) { return doc.Parse("scenario", data, (*Scenario).Validate) }

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) { return doc.Load("scenario", path, Parse) }

// MustParse is Parse for known-good literals (tests, guards).
func MustParse(data string) *Scenario { return doc.Must(Parse([]byte(data))) }

// Validate checks structure and ranges. Resolution errors (a node set the
// device calibration cannot hit, say) surface later from Resolve; Validate
// rejects everything that can be rejected without building the table.
func (s *Scenario) Validate() error {
	if err := doc.CheckName("scenario", s.Name); err != nil {
		return err
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
		if err := spec.validate(); err != nil {
			return fmt.Errorf("scenario %s: node %d nm: %w", s.Name, spec.NodeNM, err)
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
	for i, e := range s.Expect {
		if e.Artifact == "" {
			return fmt.Errorf("scenario %s: expectation needs an artifact key", s.Name)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("scenario %s: expectation for %s: %w", s.Name, e.Artifact, err)
		}
		// A second check on one finding would silently override the first.
		if slices.ContainsFunc(s.Expect[:i], func(d Expectation) bool { return d.Artifact == e.Artifact && d.Check == e.Check }) {
			return fmt.Errorf("scenario %s: expectation %s/%s listed twice", s.Name, e.Artifact, e.Check)
		}
	}
	return nil
}

// validate bounds every override; the first error names its JSON key.
func (spec *NodeSpec) validate() error {
	for i := range fields {
		f := &fields[i]
		if err := doc.CheckRange(f.key, *f.spec(spec), f.lo, f.hi); err != nil {
			return err
		}
	}
	if err := cmp.Or(
		doc.CheckRange("vth_anchor_v", spec.VthAnchorV, -0.2, 1.5),
		doc.CheckRange("dibl_v_per_v", spec.DIBL, 0, 0.5)); err != nil {
		return err
	}
	if spec.Year != nil && (*spec.Year < 1990 || *spec.Year > 2100) {
		return fmt.Errorf("year = %d outside [1990, 2100]", *spec.Year)
	}
	if spec.TotalPads != nil && (*spec.TotalPads < 4 || *spec.TotalPads > 1e6) {
		return fmt.Errorf("total_pads = %d outside [4, 1000000]", *spec.TotalPads)
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
	// Variants are named by their factor to three decimals, and the
	// factors ascend, so a grid finer than that names two neighbours alike.
	for i := 1; i < sw.Steps; i++ {
		if l := sw.label(i); l == sw.label(i-1) {
			return fmt.Errorf("sweep of %d steps over span_pct %g names two variants %s", sw.Steps, sw.SpanPct, l)
		}
	}
	base := itrs.Base()
	for _, nm := range sw.Nodes {
		if _, err := base.ByNode(nm); err != nil && !specNodes[nm] {
			return fmt.Errorf("sweep node %d nm is neither a base node nor defined by the scenario", nm)
		}
	}
	// Every entry above is a base or spec node, so the prefix a repeat is
	// looked for in holds at most MaxNodes+6 distinct entries.
	for i, nm := range sw.Nodes {
		if slices.Contains(sw.Nodes[:i], nm) {
			return fmt.Errorf("sweep node %d nm listed twice", nm)
		}
	}
	return nil
}

// factor returns the multiplier of grid step i.
func (sw *Sweep) factor(i int) float64 {
	if sw.Steps < 2 {
		return 1
	}
	span := sw.SpanPct / 100
	return 1 - span + 2*span*float64(i)/float64(sw.Steps-1)
}

// label names grid step i in its variant's name: "<param>=<factor>".
func (sw *Sweep) label(i int) string { return fmt.Sprintf("%s=%.3f", sw.Param, sw.factor(i)) }

// Canonical returns the scenario's canonical encoding: the compact JSON of
// the validated struct. Parse(Canonical(s)) reproduces the same canonical
// bytes, which is the round-trip property the fuzzer pins.
func (s *Scenario) Canonical() []byte { return doc.Canonical(s) }

// Key returns a short stable digest of the scenario's full content, used to
// thread scenario identity through the compute-cache key (and with it the
// disk store, singleflight, and ETags). It is computed once per value.
func (s *Scenario) Key() string { return s.key.Of(s) }

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
	keys, ok := sweepParams[s.Sweep.Param]
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
	out := make([]*Scenario, 0, s.Sweep.Steps)
	for i := 0; i < s.Sweep.Steps; i++ {
		factor := s.Sweep.factor(i)
		v := &Scenario{
			Name:  s.Name + "/" + s.Sweep.label(i),
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
			j := slices.IndexFunc(v.Nodes, func(spec NodeSpec) bool { return spec.NodeNM == nm })
			if j < 0 {
				v.Nodes = append(v.Nodes, NodeSpec{NodeNM: nm})
				j = len(v.Nodes) - 1
			}
			for _, key := range keys {
				f := fieldByKey(key)
				// A zero SI value is an unset optional field (VddAlt off
				// the 50 nm node) and stays unset.
				if si := *f.node(&node); si != 0 {
					*f.spec(&v.Nodes[j]) = ptr(si * factor * f.toSpec)
				}
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func ptr(v float64) *float64 { return &v }

// ExpectFor returns the scenario's expectations for one artifact, in
// declaration order. A nil receiver has none.
func (s *Scenario) ExpectFor(artifactID string) []result.Expect {
	if s == nil {
		return nil
	}
	var out []result.Expect
	for _, e := range s.Expect {
		if e.Artifact == artifactID {
			out = append(out, e.Expect)
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
	params := make(map[int]device.Params)
	for i := range s.Nodes {
		spec := &s.Nodes[i]
		j := slices.IndexFunc(nodes, func(n itrs.Node) bool { return n.DrawnNM == spec.NodeNM })
		if j < 0 {
			// Extension: seed from the nearest transcribed node, then
			// override. Device anchors seed the same way.
			seed := base.Nearest(spec.NodeNM)
			if p, ok := device.BaseParams(seed.DrawnNM); ok {
				params[spec.NodeNM] = p
			}
			seed.DrawnNM = spec.NodeNM
			nodes = append(nodes, seed)
			j = len(nodes) - 1
		}
		spec.apply(&nodes[j])
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
	if spec.TotalPads != nil {
		n.TotalPads = *spec.TotalPads
	}
	for i := range fields {
		f := &fields[i]
		if v := *f.spec(spec); v != nil {
			*f.node(n) = *v * f.toSI
		}
	}
}
