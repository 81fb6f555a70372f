package mathx

// GoldenSection minimizes a unimodal function f over [a, b] to within xtol,
// returning the minimizing x and f(x).
func GoldenSection(f func(float64) float64, a, b, xtol float64) (xmin, fmin float64) {
	if a > b {
		a, b = b, a
	}
	if xtol <= 0 {
		xtol = 1e-10
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > xtol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x := 0.5 * (a + b)
	return x, f(x)
}
