// Package trace defines the workload-trace format of the simulation job
// service: a strict-JSON document naming a power trace (an explicit series
// or a synthetic generator spec over thermal.WorkloadParams / PowerVirus),
// the thermal/DTM simulation parameters to run it under, and assertions
// checked over the resulting time series in the Claim/Check schema.
//
// Traces cross the same trust boundary scenarios do (files on disk, POST
// bodies), so Parse takes the same strict path, internal/doc: unknown
// fields rejected, sizes capped, and a parsed trace round-trips through its
// canonical encoding byte-identically; Validate range-checks every value.
// Key digests the canonical bytes — it is the content key the job queue and
// result store share, so an identical resubmit is a store hit instead of a
// second simulation.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nanometer/internal/doc"
	"nanometer/internal/itrs"
	"nanometer/internal/result"
)

// MaxFileBytes bounds a trace document; anything larger is hostile.
const MaxFileBytes = doc.MaxBytes

// MaxSeriesPoints bounds an explicit power_w series. Longer workloads must
// use a generator spec, which never materializes the series.
const MaxSeriesPoints = 1 << 16

// MaxIntervals bounds a generated trace. 2×10⁸ intervals simulate in
// seconds and need no memory, so the cap exists to bound one job's CPU,
// not its footprint.
const MaxIntervals = 200_000_000

// MaxAssertions bounds the trace-supplied checks.
const MaxAssertions = 16

// DefaultNodeNM is the roadmap node a trace simulates against when it does
// not name one: the 50 nm node of the paper's §2.1 thermal argument.
const DefaultNodeNM = 50

// Trace is one workload-trace document. Exactly one of PowerW and Generator
// supplies the series; Sim and Assert are optional.
type Trace struct {
	// Name identifies the trace in job listings, store keys, and output;
	// lowercase [a-z0-9._-], ≤ 48 chars.
	Name string `json:"name"`
	// Title is an optional human headline.
	Title string `json:"title,omitempty"`
	// Notes records provenance (papers, assumptions).
	Notes []string `json:"notes,omitempty"`
	// DtSeconds is the control interval the series is sampled at.
	DtSeconds float64 `json:"dt_seconds"`
	// NodeNM selects the roadmap node supplying the package (θja, ambient,
	// junction limit) and the DVFS table; 0 means DefaultNodeNM. Must be a
	// base-table node.
	NodeNM int `json:"node_nm,omitempty"`
	// PowerW is an explicit power series: Watts per interval at full
	// frequency and nominal supply.
	PowerW []float64 `json:"power_w,omitempty"`
	// Generator synthesizes the series instead of listing it.
	Generator *Generator `json:"generator,omitempty"`
	// Sim overrides the simulation parameters (controller, sensor, mass).
	Sim *SimSpec `json:"sim,omitempty"`
	// Assert lists checks evaluated against the simulation's summary
	// metrics, each Check one of CheckNames. A RelTol with Value 0 demands
	// an exact 0 (the |v−0| ≤ tol·0 degenerate case), which is what
	// asserting "no backlog" wants. A failed check fails the trace the way
	// a failed paper check fails an artifact.
	Assert []result.Expect `json:"assert,omitempty"`

	key doc.Key
}

// Generator is a synthetic-series spec. Kind "workload" drives
// thermal.WorkloadParams (nil fields keep the thermal.DefaultWorkload
// values for the node's max power); kind "virus" is the flat
// theoretical-worst-case trace and admits no workload shaping.
type Generator struct {
	Kind string `json:"kind"`
	// Intervals is the series length.
	Intervals int `json:"intervals"`
	// TheoreticalMaxW overrides the power-virus level; nil means the
	// node's roadmap MaxPowerW.
	TheoreticalMaxW *float64 `json:"theoretical_max_w,omitempty"`

	TypicalFraction *float64 `json:"typical_fraction,omitempty"`
	BurstFraction   *float64 `json:"burst_fraction,omitempty"`
	BurstLevel      *float64 `json:"burst_level,omitempty"`
	NoiseFraction   *float64 `json:"noise_fraction,omitempty"`
	Seed            *int64   `json:"seed,omitempty"`
}

// SimSpec parameterizes the thermal/DTM simulation. All fields are
// optional; nil keeps the defaults (clock throttling at 50 % duty, the
// node's junction limit − 1 °C trip, 2 °C hysteresis, 40 J/°C thermal
// mass — the operating point of the c1 claim artifact).
type SimSpec struct {
	// Controller is one of "throttle", "dvs", "none" ("" = "throttle").
	Controller string `json:"controller,omitempty"`
	// DutyCycle is the throttled clock fraction (controller "throttle").
	DutyCycle *float64 `json:"duty_cycle,omitempty"`
	// FreqScale and VddScale are the derated point (controller "dvs").
	FreqScale *float64 `json:"freq_scale,omitempty"`
	VddScale  *float64 `json:"vdd_scale,omitempty"`
	// CthJPerC is the junction+package thermal mass.
	CthJPerC *float64 `json:"cth_j_per_c,omitempty"`
	// SensorTripC and HysteresisC shape the thermal sensor.
	SensorTripC *float64 `json:"sensor_trip_c,omitempty"`
	HysteresisC *float64 `json:"hysteresis_c,omitempty"`
}

// CheckNames lists the metrics assertions may target, sorted. They are the
// finding keys of the result claim, so ApplyChecks attaches each
// assertion's Check to the matching finding.
func CheckNames() []string {
	return []string{
		"backlog_intervals",
		"dvfs_energy_ratio",
		"mean_power_w",
		"peak_power_w",
		"peak_temp_c",
		"throttled_fraction",
		"throughput",
	}
}

// Parse decodes and validates one trace document. It is strict: unknown
// fields, oversized documents, out-of-range values are all errors. Hostile
// input must error, never panic (FuzzTraceParse).
func Parse(data []byte) (*Trace, error) { return doc.Parse("trace", data, (*Trace).Validate) }

// Load reads and parses a trace file.
func Load(path string) (*Trace, error) { return doc.Load("trace", path, Parse) }

// MustParse is Parse for known-good literals (tests, guards).
func MustParse(data string) *Trace { return doc.Must(Parse([]byte(data))) }

// Validate checks structure and ranges.
func (t *Trace) Validate() error {
	if err := doc.CheckName("trace", t.Name); err != nil {
		return err
	}
	if !(t.DtSeconds > 0) || t.DtSeconds > 10 || math.IsInf(t.DtSeconds, 0) {
		return fmt.Errorf("trace %s: dt_seconds %g outside (0, 10]", t.Name, t.DtSeconds)
	}
	if t.NodeNM != 0 {
		if _, err := itrs.Base().ByNode(t.NodeNM); err != nil {
			return fmt.Errorf("trace %s: node_nm %d is not a base roadmap node", t.Name, t.NodeNM)
		}
	}
	switch {
	case len(t.PowerW) == 0 && t.Generator == nil:
		return fmt.Errorf("trace %s: need power_w or generator", t.Name)
	case len(t.PowerW) > 0 && t.Generator != nil:
		return fmt.Errorf("trace %s: power_w and generator are mutually exclusive", t.Name)
	}
	if len(t.PowerW) > MaxSeriesPoints {
		return fmt.Errorf("trace %s: %d power_w points, limit %d", t.Name, len(t.PowerW), MaxSeriesPoints)
	}
	for i, p := range t.PowerW {
		if math.IsNaN(p) || p < 0 || p > 10e3 {
			return fmt.Errorf("trace %s: power_w[%d] = %g outside [0, 10000]", t.Name, i, p)
		}
	}
	if t.Generator != nil {
		if err := t.Generator.validate(); err != nil {
			return fmt.Errorf("trace %s: %w", t.Name, err)
		}
	}
	if t.Sim != nil {
		if err := t.Sim.validate(); err != nil {
			return fmt.Errorf("trace %s: %w", t.Name, err)
		}
	}
	if len(t.Assert) > MaxAssertions {
		return fmt.Errorf("trace %s: %d assertions, limit %d", t.Name, len(t.Assert), MaxAssertions)
	}
	for i, a := range t.Assert {
		if !slices.Contains(CheckNames(), a.Check) {
			return fmt.Errorf("trace %s: assertion check %q not one of %v", t.Name, a.Check, CheckNames())
		}
		if err := a.Validate(); err != nil {
			return fmt.Errorf("trace %s: assertion: %w", t.Name, err)
		}
		// A second assertion on one finding would silently override the first.
		if slices.ContainsFunc(t.Assert[:i], func(b result.Expect) bool { return b.Check == a.Check }) {
			return fmt.Errorf("trace %s: assertion check %q listed twice", t.Name, a.Check)
		}
	}
	return nil
}

func (g *Generator) validate() error {
	switch g.Kind {
	case "workload", "virus":
	default:
		return fmt.Errorf("generator kind %q not one of [workload virus]", g.Kind)
	}
	if g.Intervals < 1 || g.Intervals > MaxIntervals {
		return fmt.Errorf("generator intervals %d outside [1, %d]", g.Intervals, MaxIntervals)
	}
	if g.Kind == "virus" {
		if g.TypicalFraction != nil || g.BurstFraction != nil || g.BurstLevel != nil ||
			g.NoiseFraction != nil || g.Seed != nil {
			return fmt.Errorf("generator kind virus admits only intervals and theoretical_max_w")
		}
	}
	if err := cmp.Or(
		doc.CheckRange("theoretical_max_w", g.TheoreticalMaxW, 0.001, 10e3),
		doc.CheckRange("typical_fraction", g.TypicalFraction, 0, 1),
		doc.CheckRange("burst_fraction", g.BurstFraction, 0, 1),
		doc.CheckRange("burst_level", g.BurstLevel, 0, 1),
		doc.CheckRange("noise_fraction", g.NoiseFraction, 0, 0.5)); err != nil {
		return fmt.Errorf("generator %w", err)
	}
	return nil
}

func (s *SimSpec) validate() error {
	switch s.Controller {
	case "", "throttle", "dvs", "none":
	default:
		return fmt.Errorf("sim controller %q not one of [throttle dvs none]", s.Controller)
	}
	if s.DutyCycle != nil && s.Controller != "" && s.Controller != "throttle" {
		return fmt.Errorf("sim duty_cycle only applies to controller throttle")
	}
	if (s.FreqScale != nil || s.VddScale != nil) && s.Controller != "dvs" {
		return fmt.Errorf("sim freq_scale/vdd_scale only apply to controller dvs")
	}
	if err := cmp.Or(
		doc.CheckRange("duty_cycle", s.DutyCycle, 0.01, 1),
		doc.CheckRange("freq_scale", s.FreqScale, 0.01, 1),
		doc.CheckRange("vdd_scale", s.VddScale, 0.01, 1),
		doc.CheckRange("cth_j_per_c", s.CthJPerC, 0.01, 1e5),
		doc.CheckRange("sensor_trip_c", s.SensorTripC, 25, 250),
		doc.CheckRange("hysteresis_c", s.HysteresisC, 0, 50)); err != nil {
		return fmt.Errorf("sim %w", err)
	}
	return nil
}

// Canonical returns the trace's canonical encoding: the compact JSON of the
// validated struct. Parse(Canonical(t)) reproduces the same canonical
// bytes (FuzzTraceParse pins the round trip).
func (t *Trace) Canonical() []byte { return doc.Canonical(t) }

// Key returns a short stable digest of the trace's full content — series or
// generator spec, sim parameters, assertions. It is the compute key the job
// queue, result store, and ETags share: equal keys mean an identical
// simulation, so a resubmit is answerable from the store. It is computed
// once per value, so a job snapshot does not re-marshal the series.
func (t *Trace) Key() string { return t.key.Of(t) }

// ArtifactID is the store/report identity of the trace's result ("trace:" +
// name). Distinct documents sharing a name still get distinct store files —
// the store keys on (ArtifactID, Key) and Key covers the full content.
func (t *Trace) ArtifactID() string {
	return "trace:" + t.Name
}
