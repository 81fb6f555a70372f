package device

import (
	"fmt"
	"sync"

	"nanometer/internal/itrs"
	"nanometer/internal/mathx"
	"nanometer/internal/units"
)

// Params carries the per-node model parameters that are not in the roadmap
// table itself.
type Params struct {
	// VthAnchor is the paper's Table 2 "Vth required to meet Ion" value at
	// the nominal supply; the mobility calibration targets it (DESIGN.md §2).
	VthAnchor float64
	// DIBL is the drain-induced barrier lowering coefficient. It grows as
	// channels shorten; the values are chosen so that the paper's
	// "Pstatic decays roughly quadratically with Vdd at fixed Vth" holds at
	// the nanometer nodes (≈0.1 V/V at 35 nm gives Ioff ∝ Vdd over the
	// 0.2–0.6 V range).
	DIBL float64
}

var baseParams = map[int]Params{
	180: {VthAnchor: 0.30, DIBL: 0.02},
	130: {VthAnchor: 0.29, DIBL: 0.03},
	100: {VthAnchor: 0.22, DIBL: 0.04},
	70:  {VthAnchor: 0.14, DIBL: 0.06},
	50:  {VthAnchor: 0.04, DIBL: 0.08},
	35:  {VthAnchor: 0.11, DIBL: 0.10},
}

// BaseParams returns the transcribed Table 2 device anchors for a node of
// the base roadmap, and whether the node has any. Scenario resolution uses
// it to seed extension nodes and to tell which nodes need explicit anchors.
func BaseParams(drawnNM int) (Params, bool) {
	p, ok := baseParams[drawnNM]
	return p, ok
}

// pmosMobilityRatio is µp/µn; hole mobility is roughly 0.4× electron
// mobility in these generations.
const pmosMobilityRatio = 0.4

type calibKey struct {
	node int
	pol  Polarity
}

// calibEntry is a once-cell: the first goroutine to claim a key runs the
// calibration, every other goroutine blocks on the Once and then reads the
// immutable result. Compared with a mutex this keeps concurrent reproduction
// jobs from serializing on cache *hits* (the common case) and from holding a
// lock across the Brent solve on misses.
type calibEntry struct {
	once sync.Once
	dev  *Device
	err  error
}

// Lab is a device laboratory: a roadmap table plus its per-node model
// parameters and a calibration cache. All device models for one scenario
// come out of one Lab, and every model takes its Lab as an argument. A Lab
// is safe for concurrent use.
type Lab struct {
	table  *itrs.Table
	params map[int]Params
	// cache maps calibKey → *calibEntry. Entries with err != nil are kept
	// (the inputs are immutable once the Lab is built, so a failure is
	// deterministic and retrying cannot succeed).
	cache sync.Map
}

// NewLab builds a laboratory over the given table. params supplies the Vth
// anchor and DIBL for each node; nodes present in the base parameter set
// fall back to it when absent from params. Every node of the table must end
// up with parameters.
func NewLab(table *itrs.Table, params map[int]Params) (*Lab, error) {
	merged := make(map[int]Params, table.Len())
	for _, nm := range table.NodesNM() {
		if p, ok := params[nm]; ok {
			merged[nm] = p
			continue
		}
		if p, ok := baseParams[nm]; ok {
			merged[nm] = p
			continue
		}
		return nil, fmt.Errorf("device: no model parameters (Vth anchor, DIBL) for %d nm", nm)
	}
	for _, nm := range table.NodesNM() {
		p := merged[nm]
		if p.VthAnchor < -0.2 || p.VthAnchor > 1.5 {
			return nil, fmt.Errorf("device: %d nm Vth anchor %g V outside [-0.2, 1.5]", nm, p.VthAnchor)
		}
		if p.DIBL < 0 || p.DIBL > 0.5 {
			return nil, fmt.Errorf("device: %d nm DIBL %g V/V outside [0, 0.5]", nm, p.DIBL)
		}
	}
	return &Lab{table: table, params: merged}, nil
}

// baseLabVal is the process-wide laboratory over the transcribed base
// roadmap; every BaseLab caller shares its calibration cache.
var (
	baseLabOnce sync.Once
	baseLabVal  *Lab
)

// BaseLab returns the laboratory bound to the base ITRS-2000 table.
func BaseLab() *Lab {
	baseLabOnce.Do(func() {
		lab, err := NewLab(itrs.Base(), nil)
		if err != nil {
			panic(err) // base table and anchors are static and test-covered
		}
		baseLabVal = lab
	})
	return baseLabVal
}

// Table returns the roadmap table the Lab calibrates against.
func (l *Lab) Table() *itrs.Table { return l.table }

// Node returns the Lab's roadmap entry for the given drawn feature size.
func (l *Lab) Node(drawnNM int) (itrs.Node, error) { return l.table.ByNode(drawnNM) }

// MustNode is Node for known-good literals; it panics on unknown nodes.
func (l *Lab) MustNode(drawnNM int) itrs.Node { return l.table.MustNode(drawnNM) }

// NodesNM returns the Lab's node feature sizes in descending order.
func (l *Lab) NodesNM() []int { return l.table.NodesNM() }

// ForNode returns the calibrated NMOS device model for a roadmap node. The
// returned device is a fresh copy; callers may mutate it.
func (l *Lab) ForNode(drawnNM int) (*Device, error) { return l.forNode(drawnNM, NMOS) }

// ForNodePMOS returns the calibrated PMOS companion device: identical
// structure with hole mobility (0.4× electron) and the same threshold
// magnitude. All biases are expressed as magnitudes, so PMOS devices are
// used with positive voltages throughout.
func (l *Lab) ForNodePMOS(drawnNM int) (*Device, error) { return l.forNode(drawnNM, PMOS) }

// MustForNode is ForNode for known-good node literals.
func (l *Lab) MustForNode(drawnNM int) *Device {
	d, err := l.ForNode(drawnNM)
	if err != nil {
		panic(err)
	}
	return d
}

func (l *Lab) forNode(drawnNM int, pol Polarity) (*Device, error) {
	e, _ := l.cache.LoadOrStore(calibKey{drawnNM, pol}, &calibEntry{})
	entry := e.(*calibEntry)
	entry.once.Do(func() { entry.dev, entry.err = l.calibrate(drawnNM, pol) })
	if entry.err != nil {
		return nil, entry.err
	}
	c := *entry.dev
	return &c, nil
}

// calibrate builds and mobility-calibrates the device model for one node and
// polarity. It is called exactly once per key, via the cache's once-cell.
func (l *Lab) calibrate(drawnNM int, pol Polarity) (*Device, error) {
	node, err := l.table.ByNode(drawnNM)
	if err != nil {
		return nil, err
	}
	p, ok := l.params[drawnNM]
	if !ok {
		return nil, fmt.Errorf("device: no model parameters for %d nm", drawnNM)
	}
	d := &Device{
		Name:                fmt.Sprintf("%s-%dnm", pol, drawnNM),
		Polarity:            pol,
		LeffM:               node.LeffM,
		ToxPhysicalM:        node.ToxPhysicalM,
		InversionThicknessM: DefaultInversionThicknessM,
		GateDepletionM:      DefaultGateDepletionM,
		VsatMPerS:           DefaultVsatMPerS,
		RsOhmM:              node.RsOhmM,
		Vth0:                p.VthAnchor,
		VddRef:              node.Vdd,
		DIBL:                p.DIBL,
		// The paper's Eq. 4 carries temperature only through the
		// subthreshold swing, so the default Vth temperature coefficient is
		// zero; callers modeling Vth(T) explicitly can set the field.
		VthTempCoeffVPerK:     0,
		SubthresholdSwing300K: DefaultSubthresholdSwing,
		IoffPrefactorAPerM:    DefaultIoffPrefactorAPerM,
	}
	mob, err := CalibrateMobility(d, node.IonTargetAPerM, node.Vdd, units.RoomTemperature)
	if err != nil {
		return nil, fmt.Errorf("device: calibrating %d nm %s: %w", drawnNM, pol, err)
	}
	d.MobilityM2PerVs = mob
	if pol == PMOS {
		// Holes are slower; PMOS delivers ~0.4× the NMOS drive at the same
		// width, which is why the paper's reference inverter uses Wp = 2·Wn.
		d.MobilityM2PerVs *= pmosMobilityRatio
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// CalibrateMobility solves for the effective mobility at which the device
// (with its current Vth0) delivers ionTarget A/m at supply vdd and
// temperature T. This pins the one free prefactor of the compact model to
// the paper's Table 2 threshold anchors, standing in for the SPICE decks we
// do not have (DESIGN.md §2). The device's MobilityM2PerVs field is ignored
// and left unchanged.
func CalibrateMobility(d *Device, ionTarget, vdd, tKelvin float64) (float64, error) {
	f := func(mob float64) float64 {
		c := *d
		c.MobilityM2PerVs = mob
		return c.IonPerWidth(vdd, tKelvin) - ionTarget
	}
	// 20 to 3000 cm²/Vs in m²/Vs.
	lo, hi := 2e-3, 3e-1
	if f(lo) > 0 {
		return 0, fmt.Errorf("device: Ion target %g A/m met even at mobility %g", ionTarget, lo)
	}
	if f(hi) < 0 {
		return 0, fmt.Errorf("device: Ion target %g A/m unreachable at mobility %g", ionTarget, hi)
	}
	return mathx.Brent(f, lo, hi, 1e-9)
}
