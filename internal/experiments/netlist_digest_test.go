package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
)

// netlistDigest hashes the structure netlist.Generate draws: every gate's
// kind, inputs, fanouts, PO flag, size and wire-capacitance bits, in ID
// order.
func netlistDigest(c *netlist.Circuit) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for i := range c.Gates {
		g := &c.Gates[i]
		put(uint64(g.Kind))
		put(uint64(len(g.Inputs)))
		for _, in := range g.Inputs {
			put(uint64(in))
		}
		put(uint64(len(g.Fanouts)))
		for _, fo := range g.Fanouts {
			put(uint64(fo))
		}
		if g.IsPO {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(g.Size))
		put(math.Float64bits(g.WireCapF))
	}
	h.Write(buf)
	return h.Sum64()
}

// TestGenerateDigestPinned pins netlist.Generate's output bit for bit for
// the two netlists the report builds on: the generator's default block and
// the c3–c6 benchmark circuit. Any change to the generator's RNG draws or
// its index structures moves a digest; the values were recorded before the
// per-level candidate lists became contiguous ID ranges.
func TestGenerateDigestPinned(t *testing.T) {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	def, err := netlist.Generate(tech, netlist.DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	bench, err := buildCircuitIn(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
		want uint64
	}{
		{"DefaultGenParams", def, 0x6f3b88b2428f1240},
		{"DefaultCircuitSetup", bench, 0x5f1de318bc2f575e},
	} {
		if got := netlistDigest(tc.c); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
