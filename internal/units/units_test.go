package units

import "testing"

func TestThermalVoltage(t *testing.T) {
	got := ThermalVoltage(300)
	if !ApproxEqual(got, 0.02585, 1e-3, 0) {
		t.Fatalf("kT/q at 300 K = %g, want ≈25.85 mV", got)
	}
	if ThermalVoltage(600) <= got {
		t.Fatalf("thermal voltage must increase with temperature")
	}
}

func TestTemperatureConversions(t *testing.T) {
	if got := CelsiusToKelvin(85); got != 358.15 {
		t.Fatalf("85 °C = %g K, want 358.15", got)
	}
	if got := CelsiusToKelvin(-CelsiusOffset); got != 0 {
		t.Fatalf("absolute zero = %g K, want 0", got)
	}
}

func TestOxideCapacitance(t *testing.T) {
	// 2 nm SiO2 ≈ 1.73 µF/cm² = 1.73e-2 F/m².
	got := OxideCapacitance(2e-9)
	if !ApproxEqual(got, 1.726e-2, 5e-3, 0) {
		t.Fatalf("Cox(2 nm) = %g F/m², want ≈1.73e-2", got)
	}
	// Thinner oxide, larger capacitance.
	if OxideCapacitance(1e-9) <= got {
		t.Fatalf("capacitance must increase as the oxide thins")
	}
}

func TestOxideCapacitancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for non-positive thickness")
		}
	}()
	OxideCapacitance(0)
}

func TestCurrentConversions(t *testing.T) {
	if got := NAPerUMFromAmpsPerMeter(0.456); !ApproxEqual(got, 456, 1e-12, 0) {
		t.Fatalf("0.456 A/m = %g nA/µm, want 456", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 101, 0.02, 0) {
		t.Fatalf("1%% apart should match at 2%% tolerance")
	}
	if ApproxEqual(100, 103, 0.02, 0) {
		t.Fatalf("3%% apart should not match at 2%% tolerance")
	}
	if !ApproxEqual(0, 1e-12, 0, 1e-9) {
		t.Fatalf("absolute tolerance near zero should match")
	}
}

func TestRoomTemperature(t *testing.T) {
	if RoomTemperature != 300 {
		t.Fatalf("the paper's leakage convention is 300 K, got %g", RoomTemperature)
	}
}
