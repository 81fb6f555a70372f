package mathx

// Linspace returns n evenly spaced values from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// Logspace returns n logarithmically spaced values from a to b inclusive
// (a, b > 0).
func Logspace(a, b float64, n int) []float64 {
	if a <= 0 || b <= 0 {
		panic("mathx: Logspace requires positive endpoints")
	}
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	la, lb := log(a), log(b)
	step := (lb - la) / float64(n-1)
	for i := range out {
		out[i] = exp(la + float64(i)*step)
	}
	out[n-1] = b
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
