package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEquation1(t *testing.T) {
	// θja = (Tchip − Tambient)/Pchip and its rearrangements.
	pkg := Package{ThetaJA: 0.8, AmbientC: 45}
	if got := pkg.JunctionTempC(50); got != 85 {
		t.Fatalf("Tchip = %g, want 85", got)
	}
	if got := pkg.MaxPowerW(85); got != 50 {
		t.Fatalf("Pmax = %g, want 50", got)
	}
	theta, err := RequiredThetaJA(50, 85, 45)
	if err != nil || theta != 0.8 {
		t.Fatalf("θja = %g (%v), want 0.8", theta, err)
	}
}

func TestRequiredThetaJAErrors(t *testing.T) {
	if _, err := RequiredThetaJA(0, 85, 45); err == nil {
		t.Fatalf("zero power must error")
	}
	if _, err := RequiredThetaJA(50, 40, 45); err == nil {
		t.Fatalf("junction below ambient must error")
	}
}

func TestCoolingTiers(t *testing.T) {
	// The 1999 design point (junction 100 °C, ambient 45 °C).
	c65, err := SelectCooling(65, 100, 45)
	if err != nil {
		t.Fatal(err)
	}
	c75, err := SelectCooling(75, 100, 45)
	if err != nil {
		t.Fatal(err)
	}
	if c65.Class != ForcedAir {
		t.Fatalf("65 W should be forced air, got %v", c65.Class)
	}
	if c75.Class != HeatPipe {
		t.Fatalf("75 W should need heat pipes, got %v", c75.Class)
	}
	ratio := c75.CostUSD / c65.CostUSD
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("65→75 W cost step = %.1f×, paper says ~3×", ratio)
	}
}

func TestCoolingMonotoneCost(t *testing.T) {
	prev := 0.0
	for _, p := range []float64{10, 40, 65, 75, 120, 180, 300} {
		sol, err := SelectCooling(p, 85, 45)
		if err != nil {
			t.Fatalf("%g W: %v", p, err)
		}
		if sol.CostUSD < prev {
			t.Fatalf("cooling cost must not fall as power rises (%g W: $%g < $%g)", p, sol.CostUSD, prev)
		}
		prev = sol.CostUSD
	}
}

func TestCoolingRefrigerationDollarPerWatt(t *testing.T) {
	// Deep tiers approach the paper's ~$1/W refrigeration cost.
	sol, err := SelectCooling(500, 85, 45)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Class != Refrigeration {
		t.Fatalf("500 W at 85 °C should need refrigeration, got %v", sol.Class)
	}
	perWatt := (sol.CostUSD - 150) / 500
	if math.Abs(perWatt-1.0) > 1e-9 {
		t.Fatalf("refrigeration = $%.2f/W, paper says ~$1/W", perWatt)
	}
}

func TestCoolingInfeasible(t *testing.T) {
	if _, err := SelectCooling(5000, 50, 45); err == nil {
		t.Fatalf("impossible θja must error")
	}
}

func TestPlantConvergesToSteadyState(t *testing.T) {
	pkg := Package{ThetaJA: 0.5, AmbientC: 45}
	plant := NewPlant(pkg, 40)
	for i := 0; i < 10000; i++ {
		plant.Step(100, 0.1)
	}
	want := pkg.JunctionTempC(100) // 95 °C
	if math.Abs(plant.TempC-want) > 0.01 {
		t.Fatalf("steady state %g, want %g", plant.TempC, want)
	}
}

func TestPlantExactExponential(t *testing.T) {
	pkg := Package{ThetaJA: 0.5, AmbientC: 45}
	plant := NewPlant(pkg, 40)
	tau := plant.TimeConstant()
	if tau != 20 {
		t.Fatalf("τ = %g, want 20 s", tau)
	}
	plant.Step(100, tau) // one time constant
	want := 95 + (45-95)*math.Exp(-1)
	if math.Abs(plant.TempC-want) > 1e-9 {
		t.Fatalf("after one τ: %g, want %g", plant.TempC, want)
	}
}

// Property: stepping in two halves equals one full step (the exponential
// update is exact, not Euler).
func TestPlantStepComposition(t *testing.T) {
	f := func(pSeed, dtSeed uint8) bool {
		p := float64(pSeed)
		dt := 0.01 + float64(dtSeed)/10
		pkg := Package{ThetaJA: 0.4, AmbientC: 45}
		a := NewPlant(pkg, 30)
		b := NewPlant(pkg, 30)
		a.Step(p, dt)
		b.Step(p, dt/2)
		b.Step(p, dt/2)
		return math.Abs(a.TempC-b.TempC) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPlantStepMemoExact: Step caches exp(−dt/τ), yet every step equals
// the closed form bit for bit when dt, θja or Cth change between steps,
// and τ ≤ 0 still jumps straight to the steady state.
func TestPlantStepMemoExact(t *testing.T) {
	plant := NewPlant(Package{ThetaJA: 0.4, AmbientC: 45}, 30)
	closed := plant.TempC
	for i, s := range []struct {
		theta, cth, p, dt float64
	}{
		{0.4, 30, 120, 0.01},
		{0.4, 30, 120, 0.01}, // cache hit
		{0.4, 30, 80, 0.5},   // new dt
		{0.25, 30, 80, 0.5},  // new θja
		{0.25, 12, 80, 0.5},  // new Cth
		{0.25, 12, 80, 0.01},
		{0.4, 30, 120, 0.01}, // back to the first pair
		{0.3, 0, 100, 0.01},  // τ = 0
		{0.3, -5, 150, 0.01}, // τ < 0
		{0.3, 20, 150, 0.01},
	} {
		plant.ThetaJA, plant.CthJPerC = s.theta, s.cth
		plant.Step(s.p, s.dt)
		tInf := plant.AmbientC + s.theta*s.p
		if tau := s.theta * s.cth; tau <= 0 {
			closed = tInf
		} else {
			closed = tInf + (closed-tInf)*math.Exp(-s.dt/tau)
		}
		if math.Float64bits(plant.TempC) != math.Float64bits(closed) {
			t.Fatalf("step %d: %v, closed form %v", i, plant.TempC, closed)
		}
	}
}

func TestSensorHysteresis(t *testing.T) {
	s := &Sensor{TripC: 85, HysteresisC: 3}
	if s.Read(80) {
		t.Fatalf("below trip must not assert")
	}
	if !s.Read(85) {
		t.Fatalf("at trip must assert")
	}
	if !s.Read(83) {
		t.Fatalf("within hysteresis must stay asserted")
	}
	if s.Read(81.9) {
		t.Fatalf("below trip−hysteresis must release")
	}
	// Offset shifts the trip point.
	s2 := &Sensor{TripC: 85, HysteresisC: 3, OffsetC: 5}
	if !s2.Read(80) {
		t.Fatalf("a sensor reading 5 °C high must trip early")
	}
	s2.Reset()
	if s2.tripped {
		t.Fatalf("reset must clear the latch")
	}
}

func TestControllers(t *testing.T) {
	if f, v := (NoDTM{}).Act(true); f != 1 || v != 1 {
		t.Fatalf("NoDTM must never derate")
	}
	th := ClockThrottle{DutyCycle: 0.5}
	if f, v := th.Act(true); f != 0.5 || v != 1 {
		t.Fatalf("throttle hot: %g, %g", f, v)
	}
	if f, _ := th.Act(false); f != 1 {
		t.Fatalf("throttle must release when cool")
	}
	dvs := DVS{FreqScale: 0.7, VddScale: 0.8}
	if f, v := dvs.Act(true); f != 0.7 || v != 0.8 {
		t.Fatalf("DVS hot: %g, %g", f, v)
	}
	for _, c := range []Controller{NoDTM{}, th, dvs} {
		if c.Name() == "" {
			t.Fatalf("controller must have a name")
		}
	}
}

func TestSimulateVirusContained(t *testing.T) {
	// A package sized for 75 % of the virus: without DTM the junction
	// overshoots; with throttling it holds.
	const pMax = 174.0
	theta, _ := RequiredThetaJA(0.75*pMax, 85, 45)
	pkg := Package{ThetaJA: theta, AmbientC: 45}
	virus := PowerVirus(pMax, 20000)

	noDTM := Simulate(NewPlant(pkg, 40), &Sensor{TripC: 84, HysteresisC: 2}, NoDTM{}, virus, 0.01)
	if noDTM.PeakTempC <= 85 {
		t.Fatalf("without DTM the virus must overheat the underdesigned package (peak %g)", noDTM.PeakTempC)
	}
	dtm := Simulate(NewPlant(pkg, 40), &Sensor{TripC: 84, HysteresisC: 2}, ClockThrottle{DutyCycle: 0.5}, virus, 0.01)
	if dtm.PeakTempC > 85.5 {
		t.Fatalf("throttling must hold the junction (peak %g)", dtm.PeakTempC)
	}
	if dtm.Throughput >= 1 || dtm.Throughput < 0.5 {
		t.Fatalf("throttled virus throughput = %g, expected graceful degradation", dtm.Throughput)
	}
	if dtm.ThrottledFraction <= 0 {
		t.Fatalf("the controller must actually have engaged")
	}
}

func TestSimulateDVSBeatsThrottleOnThroughput(t *testing.T) {
	// At equal thermal containment, cubic-power DVS derating delivers more
	// work per degree than linear clock gating.
	const pMax = 174.0
	theta, _ := RequiredThetaJA(0.75*pMax, 85, 45)
	pkg := Package{ThetaJA: theta, AmbientC: 45}
	virus := PowerVirus(pMax, 20000)
	th := Simulate(NewPlant(pkg, 40), &Sensor{TripC: 84, HysteresisC: 2}, ClockThrottle{DutyCycle: 0.5}, virus, 0.01)
	dv := Simulate(NewPlant(pkg, 40), &Sensor{TripC: 84, HysteresisC: 2}, DVS{FreqScale: 0.7, VddScale: 0.8}, virus, 0.01)
	if dv.Throughput <= th.Throughput {
		t.Fatalf("DVS throughput %g should beat clock throttling %g", dv.Throughput, th.Throughput)
	}
	if dv.PeakTempC > 85.5 {
		t.Fatalf("DVS must still contain the virus")
	}
}

func TestEffectiveWorstCase(t *testing.T) {
	pkg := Package{ThetaJA: 0.25, AmbientC: 45}
	var traces [][]float64
	for seed := int64(1); seed <= 3; seed++ {
		p := DefaultWorkload(174)
		p.Seed = seed
		traces = append(traces, p.Generate(3000))
	}
	eff := EffectiveWorstCase(pkg, 40, 84, ClockThrottle{DutyCycle: 0.5}, traces, 0.01)
	frac := eff / 174
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("effective worst case = %.0f%% of theoretical, paper says ≈75%%", frac*100)
	}
}

func TestThetaJAHeadroom(t *testing.T) {
	// 25 % lower power → 33 % higher allowable θja (the paper's numbers).
	if got := ThetaJAHeadroom(100, 75); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("headroom = %g, want 1/3", got)
	}
	if !math.IsInf(ThetaJAHeadroom(100, 0), 1) {
		t.Fatalf("zero effective power must give infinite headroom")
	}
}

func TestWorkloadGenerator(t *testing.T) {
	p := DefaultWorkload(100)
	trace := p.Generate(5000)
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	sum := 0.0
	for _, v := range trace {
		if v < 0 || v > 100 {
			t.Fatalf("trace value %g outside [0, max]", v)
		}
		sum += v
	}
	mean := sum / float64(len(trace))
	if mean < 60 || mean > 90 {
		t.Fatalf("mean workload = %g, expected the power-hungry ~70-80%% band", mean)
	}
	// Deterministic by seed.
	again := p.Generate(5000)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatalf("generator must be deterministic for a fixed seed")
		}
	}
	p2 := p
	p2.Seed = 99
	other := p2.Generate(5000)
	same := true
	for i := range trace {
		if trace[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds must differ")
	}
}

// TestWorkloadBurstStatistics pins the generator to its contract on a
// 10⁶-interval trace: the measured burst duty cycle lands within ±10 %
// relative of BurstFraction, and burst lengths are geometric with mean
// BurstMeanLength. Burst and base levels are disjoint under the default
// noise amplitude (0.95·(1−0.08) = 0.874 vs 0.70·(1+0.08) = 0.756), so a
// midpoint threshold classifies every interval exactly.
func TestWorkloadBurstStatistics(t *testing.T) {
	const n = 1_000_000
	for _, burstFraction := range []float64{0.15, 0.30} {
		p := DefaultWorkload(100)
		p.BurstFraction = burstFraction
		trace := p.Generate(n)
		threshold := 100 * (p.BurstLevel*(1-p.NoiseFraction) + p.TypicalFraction*(1+p.NoiseFraction)) / 2
		inBurst := 0
		bursts := 0
		prev := false
		for _, v := range trace {
			b := v > threshold
			if b {
				inBurst++
				if !prev {
					bursts++
				}
			}
			prev = b
		}
		duty := float64(inBurst) / n
		if rel := math.Abs(duty-burstFraction) / burstFraction; rel > 0.10 {
			t.Errorf("BurstFraction=%g: measured duty %.4f off by %.1f%%, want within ±10%%",
				burstFraction, duty, rel*100)
		}
		meanLen := float64(inBurst) / float64(bursts)
		if meanLen < BurstMeanLength*0.92 || meanLen > BurstMeanLength*1.08 {
			t.Errorf("BurstFraction=%g: mean burst length %.2f, want ≈%g (geometric)",
				burstFraction, meanLen, BurstMeanLength)
		}
	}
	// Deterministic per seed at the statistical length too.
	p := DefaultWorkload(100)
	a, b := p.Generate(4096), p.Generate(4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at interval %d for a fixed seed", i)
		}
	}
}

// referenceStream is the generator as a one-interval-at-a-time step,
// reading every parameter from the stream on each call.
func referenceStream(s *Stream) float64 {
	if r := s.rng.Float64(); s.inBurst {
		s.inBurst = r >= s.exit
	} else {
		s.inBurst = r < s.enter
	}
	level := s.base
	if s.inBurst {
		level = s.p.BurstLevel * s.p.TheoreticalMaxW
	}
	level *= 1 + s.p.NoiseFraction*(2*s.rng.Float64()-1)
	if level > s.p.TheoreticalMaxW {
		level = s.p.TheoreticalMaxW
	}
	if level < 0 {
		level = 0
	}
	return level
}

// TestStreamFillMatchesReference pins Fill bit for bit to the
// per-interval step, whatever the block lengths a caller splits the trace
// into (empty blocks included), across burst regimes that include the
// always-bursting and never-bursting edges.
func TestStreamFillMatchesReference(t *testing.T) {
	for _, bf := range []float64{0, 0.15, 0.6, 1} {
		p := DefaultWorkload(174)
		p.BurstFraction, p.NoiseFraction, p.Seed = bf, 0.3, 42
		ref, got := p.Stream(), p.Stream()
		buf := make([]float64, 700)
		done := 0
		for k := 0; done < 20000; k++ {
			blk := buf[:(k*k*37)%len(buf)]
			got.Fill(blk)
			for i, v := range blk {
				if want := referenceStream(ref); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("burst fraction %g: interval %d = %v, reference %v", bf, done+i, v, want)
				}
			}
			done += len(blk)
		}
	}
}

func TestPowerVirus(t *testing.T) {
	v := PowerVirus(174, 10)
	for _, x := range v {
		if x != 174 {
			t.Fatalf("virus must be flat at the theoretical maximum")
		}
	}
}
