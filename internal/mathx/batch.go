package mathx

import (
	"fmt"
	"math"
)

// SolveMGBatchW solves k same-pattern systems mats[v]·x = bs[v] in
// lockstep, sharing one CSR pattern traversal per Krylov iteration. It is
// the sweep-solve kernel: a scenario sweep assembles k structurally
// identical meshes (same grid size, different conductances and currents),
// and solving them together loads rowPtr/fcols once per row for all k
// variants instead of once per variant — the pattern indices are ~27% of
// the SpMV traffic, plus the loop overhead amortizes k ways.
//
// Per-variant semantics are EXACTLY SolveMGW's: each variant executes the
// same operation sequence on its own vectors (same FMG start, same
// convergence test, same error conditions, same float accumulation order —
// the batched SpMV keeps one running sum per variant, added in the same
// insertion order as mulVecRows), and a variant leaves the batch the
// moment it converges or errors, exactly when a solo solve would return.
// Results are therefore bit-identical to k independent SolveMGW calls
// regardless of batch composition — the property that lets sweep priming
// populate caches that solo solves must later match byte for byte
// (TestBatchMatchesSoloBitwise pins it).
//
// Every slice argument has length k; wss/mgs follow the same reuse and
// aliasing contracts as SolveMGW (xs[v] aliases wss[v].x). The V-cycle
// preconditioner itself is deliberately NOT batched: its stencil levels
// share no arrays between variants, and interleaving k working sets
// through the level hierarchy would evict cache it currently fits in.
// errs[v] reports each variant's outcome; a batch-shape violation
// (mismatched lengths, unfrozen or different-pattern matrices) fails every
// variant with the same error so callers can fall back to solo solves.
func SolveMGBatchW(wss []*Workspace, mgs []*MeshMG, mats []*SparseMatrix, bs [][]float64, tol float64, maxIter int) ([][]float64, []int, []error) {
	k := len(bs)
	xs := make([][]float64, k)
	iters := make([]int, k)
	errs := make([]error, k)
	if k == 0 {
		return xs, iters, errs
	}
	failAll := func(err error) ([][]float64, []int, []error) {
		for v := range errs {
			errs[v] = err
		}
		return xs, iters, errs
	}
	if len(wss) != k || len(mgs) != k || len(mats) != k {
		return failAll(fmt.Errorf("mathx: batch solve length mismatch (ws=%d mg=%d mat=%d b=%d)", len(wss), len(mgs), len(mats), k))
	}
	m0 := mats[0]
	n := m0.N
	for v, m := range mats {
		switch {
		case !m.frozen:
			return failAll(fmt.Errorf("mathx: batch solve needs frozen matrices (variant %d is not)", v))
		case m.N != n:
			return failAll(fmt.Errorf("mathx: batch solve size mismatch (variant %d has N=%d, want %d)", v, m.N, n))
		case !samePattern(m, m0):
			return failAll(fmt.Errorf("mathx: batch solve pattern mismatch at variant %d", v))
		case len(bs[v]) != n:
			return failAll(fmt.Errorf("mathx: rhs length %d, want %d", len(bs[v]), n))
		}
	}

	// Per-variant init — the same sequence SolveMGW runs solo.
	type state struct {
		x, r, p, z, ap []float64
		rz, bNorm      float64
		rNorm          float64
	}
	sts := make([]state, k)
	active := make([]int, 0, k)
	for v := 0; v < k; v++ {
		ws := wss[v]
		ws.grow(n)
		st := &sts[v]
		st.x, st.r, st.p, st.z, st.ap = ws.x, ws.r, ws.p, ws.z, ws.ap
		copy(st.r, bs[v])
		st.bNorm = math.Sqrt(dot(st.r, st.r))
		if st.bNorm == 0 {
			xs[v] = st.x
			continue
		}
		mgs[v].FMGStart(bs[v], st.x)
		active = append(active, v)
	}
	// FMG residuals r = b − A·x₀, the A·x₀ products batched across the
	// active variants.
	if len(active) > 0 {
		amats := make([]*SparseMatrix, len(active))
		axs := make([][]float64, len(active))
		ays := make([][]float64, len(active))
		for j, v := range active {
			amats[j], axs[j], ays[j] = mats[v], sts[v].x, sts[v].ap
		}
		mulVecBatch(amats, axs, ays)
		for _, v := range active {
			st := &sts[v]
			r, b, ap := st.r, bs[v], st.ap
			if parallelOK(n) {
				parFor(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						r[i] = b[i] - ap[i]
					}
				})
			} else {
				for i := range r {
					r[i] = b[i] - ap[i]
				}
			}
		}
	}
	live := active[:0]
	for _, v := range active {
		st := &sts[v]
		mgs[v].Apply(st.r, st.z)
		copy(st.p, st.z)
		st.rz = dot(st.r, st.z)
		if !(st.rz > 0) {
			errs[v] = fmt.Errorf("mathx: MG-PCG: preconditioner not positive definite (rᵀz = %g): %w", st.rz, ErrNotSPD)
			continue
		}
		st.rNorm = math.Sqrt(dot(st.r, st.r))
		live = append(live, v)
	}
	active = live

	// Lockstep iterations: one batched SpMV over the active set, then the
	// per-variant scalar work, each variant oblivious to the others. On
	// the serial path the two Krylov reductions fuse into the passes that
	// produce their operands — pᵀAp into the SpMV, rᵀr into the axpy pair
	// — accumulating the same values in the same ascending-index order as
	// the separate dots (bit-neutral), while saving three full vector
	// re-streams per variant per iteration. The solo SolveMGW keeps the
	// textbook structure; this fusion is the batch's own restructuring
	// win on top of the shared pattern traversal.
	amats := make([]*SparseMatrix, 0, k)
	axs := make([][]float64, 0, k)
	ays := make([][]float64, 0, k)
	pAps := make([]float64, k)
	for iter := 1; iter <= maxIter && len(active) > 0; iter++ {
		amats, axs, ays = amats[:0], axs[:0], ays[:0]
		for _, v := range active {
			amats = append(amats, mats[v])
			axs = append(axs, sts[v].p)
			ays = append(ays, sts[v].ap)
		}
		serial := !parallelOK(n)
		if serial {
			mulVecBatchDot(amats, axs, ays, pAps)
		} else {
			mulVecBatch(amats, axs, ays)
			for j, v := range active {
				pAps[j] = dot(sts[v].p, sts[v].ap)
			}
		}
		live := active[:0]
		for j, v := range active {
			st := &sts[v]
			pAp := pAps[j]
			if !(pAp > 0) {
				errs[v] = fmt.Errorf("mathx: MG-PCG: curvature pᵀAp = %g at iteration %d: %w", pAp, iter, ErrNotSPD)
				iters[v] = iter
				continue
			}
			alpha := st.rz / pAp
			x, r, p, z, ap := st.x, st.r, st.p, st.z, st.ap
			rr := 0.0
			if serial {
				for i := range x {
					x[i] += alpha * p[i]
					ri := r[i] - alpha*ap[i]
					r[i] = ri
					rr += ri * ri
				}
			} else {
				parFor(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						x[i] += alpha * p[i]
						r[i] -= alpha * ap[i]
					}
				})
				rr = dot(r, r)
			}
			st.rNorm = math.Sqrt(rr)
			if st.rNorm <= tol*st.bNorm {
				xs[v] = x
				iters[v] = iter
				continue
			}
			mgs[v].Apply(r, z)
			rzNew := dot(r, z)
			if !(rzNew > 0) {
				errs[v] = fmt.Errorf("mathx: MG-PCG: preconditioner not positive definite (rᵀz = %g): %w", rzNew, ErrNotSPD)
				iters[v] = iter
				continue
			}
			beta := rzNew / st.rz
			if parallelOK(n) {
				parFor(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						p[i] = z[i] + beta*p[i]
					}
				})
			} else {
				for i := range p {
					p[i] = z[i] + beta*p[i]
				}
			}
			st.rz = rzNew
			live = append(live, v)
		}
		active = live
	}
	for _, v := range active {
		st := &sts[v]
		xs[v] = st.x
		iters[v] = maxIter
		errs[v] = noConverge("MG-PCG", maxIter, st.rNorm/st.bNorm)
	}
	return xs, iters, errs
}

// samePattern reports whether two frozen matrices share a sparsity
// pattern. The fast path is identity of the backing arrays — the mesh
// assembly cache hands every same-size variant the same rowPtr/fcols
// slices — with a content comparison fallback for independently built but
// structurally equal matrices.
func samePattern(a, b *SparseMatrix) bool {
	if len(a.rowPtr) > 0 && len(b.rowPtr) == len(a.rowPtr) && &a.rowPtr[0] == &b.rowPtr[0] &&
		len(a.fcols) == len(b.fcols) && (len(a.fcols) == 0 || &a.fcols[0] == &b.fcols[0]) {
		return true
	}
	if len(a.rowPtr) != len(b.rowPtr) || len(a.fcols) != len(b.fcols) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for i := range a.fcols {
		if a.fcols[i] != b.fcols[i] {
			return false
		}
	}
	return true
}

// mulVecBatch computes ys[v] = mats[v]·xs[v] for same-pattern frozen
// matrices, sharing the pattern traversal across variants in
// register-blocked groups of four. The slice headers (values, diagonal,
// vectors) are hoisted out of the per-matrix structs once per call — a
// naive per-element mats[v].fvals[i] indirection costs ~3× the solo
// kernel and erases the sharing win.
func mulVecBatch(mats []*SparseMatrix, xs, ys [][]float64) {
	n := mats[0].N
	k := len(mats)
	fvs := make([][]float64, k)
	dgs := make([][]float64, k)
	for v, m := range mats {
		fvs[v], dgs[v] = m.fvals, m.diag
	}
	rp, cols := mats[0].rowPtr, mats[0].fcols
	if parallelOK(n) {
		parFor(n, func(lo, hi int) {
			mulVecBatchRows(rp, cols, fvs, dgs, xs, ys, lo, hi)
		})
	} else {
		mulVecBatchRows(rp, cols, fvs, dgs, xs, ys, 0, n)
	}
}

// mulVecBatchDot is the serial fused form of mulVecBatch: alongside each
// ys[v] = mats[v]·xs[v] it accumulates pAps[v] = xs[v]ᵀ·ys[v] in ascending
// row order — the exact accumulation sequence dot(xs[v], ys[v]) would run
// after the product, so the fusion changes no bits, only skips re-reading
// two n-vectors per variant from memory. Serial-path only: under a
// parallel row split the single running sum per variant would have to
// become per-block partials, which is a different float ordering.
func mulVecBatchDot(mats []*SparseMatrix, xs, ys [][]float64, pAps []float64) {
	k := len(mats)
	fvs := make([][]float64, k)
	dgs := make([][]float64, k)
	for v, m := range mats {
		fvs[v], dgs[v] = m.fvals, m.diag
	}
	rp, cols := mats[0].rowPtr, mats[0].fcols
	n := mats[0].N
	v := 0
	for ; v+4 <= k; v += 4 {
		f0, f1, f2, f3 := fvs[v], fvs[v+1], fvs[v+2], fvs[v+3]
		d0, d1, d2, d3 := dgs[v], dgs[v+1], dgs[v+2], dgs[v+3]
		x0, x1, x2, x3 := xs[v], xs[v+1], xs[v+2], xs[v+3]
		y0, y1, y2, y3 := ys[v], ys[v+1], ys[v+2], ys[v+3]
		p0, p1, p2, p3 := 0.0, 0.0, 0.0, 0.0
		for r := 0; r < n; r++ {
			s0 := d0[r] * x0[r]
			s1 := d1[r] * x1[r]
			s2 := d2[r] * x2[r]
			s3 := d3[r] * x3[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				c := cols[i]
				s0 += f0[i] * x0[c]
				s1 += f1[i] * x1[c]
				s2 += f2[i] * x2[c]
				s3 += f3[i] * x3[c]
			}
			y0[r], y1[r], y2[r], y3[r] = s0, s1, s2, s3
			p0 += x0[r] * s0
			p1 += x1[r] * s1
			p2 += x2[r] * s2
			p3 += x3[r] * s3
		}
		pAps[v], pAps[v+1], pAps[v+2], pAps[v+3] = p0, p1, p2, p3
	}
	if v+2 <= k {
		f0, f1 := fvs[v], fvs[v+1]
		d0, d1 := dgs[v], dgs[v+1]
		x0, x1 := xs[v], xs[v+1]
		y0, y1 := ys[v], ys[v+1]
		p0, p1 := 0.0, 0.0
		for r := 0; r < n; r++ {
			s0 := d0[r] * x0[r]
			s1 := d1[r] * x1[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				c := cols[i]
				s0 += f0[i] * x0[c]
				s1 += f1[i] * x1[c]
			}
			y0[r], y1[r] = s0, s1
			p0 += x0[r] * s0
			p1 += x1[r] * s1
		}
		pAps[v], pAps[v+1] = p0, p1
		v += 2
	}
	if v < k {
		f0, d0, x0, y0 := fvs[v], dgs[v], xs[v], ys[v]
		p0 := 0.0
		for r := 0; r < n; r++ {
			s0 := d0[r] * x0[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				s0 += f0[i] * x0[cols[i]]
			}
			y0[r] = s0
			p0 += x0[r] * s0
		}
		pAps[v] = p0
	}
}

// mulVecBatchRows is the shared-pattern CSR kernel for rows [lo, hi):
// pattern indices load once per row per variant GROUP (4-wide, then the
// 2/1-wide remainder), with each group's array headers pinned in locals
// so the accumulators stay in registers. Each variant's sum accumulates
// diagonal first, then off-diagonals in insertion order — the exact order
// of the solo mulVecRows, so batched products are bit-identical to solo
// ones regardless of how variants land in groups.
func mulVecBatchRows(rp, cols []int32, fvs, dgs, xs, ys [][]float64, lo, hi int) {
	k := len(fvs)
	v := 0
	for ; v+4 <= k; v += 4 {
		f0, f1, f2, f3 := fvs[v], fvs[v+1], fvs[v+2], fvs[v+3]
		d0, d1, d2, d3 := dgs[v], dgs[v+1], dgs[v+2], dgs[v+3]
		x0, x1, x2, x3 := xs[v], xs[v+1], xs[v+2], xs[v+3]
		y0, y1, y2, y3 := ys[v], ys[v+1], ys[v+2], ys[v+3]
		for r := lo; r < hi; r++ {
			s0 := d0[r] * x0[r]
			s1 := d1[r] * x1[r]
			s2 := d2[r] * x2[r]
			s3 := d3[r] * x3[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				c := cols[i]
				s0 += f0[i] * x0[c]
				s1 += f1[i] * x1[c]
				s2 += f2[i] * x2[c]
				s3 += f3[i] * x3[c]
			}
			y0[r], y1[r], y2[r], y3[r] = s0, s1, s2, s3
		}
	}
	if v+2 <= k {
		f0, f1 := fvs[v], fvs[v+1]
		d0, d1 := dgs[v], dgs[v+1]
		x0, x1 := xs[v], xs[v+1]
		y0, y1 := ys[v], ys[v+1]
		for r := lo; r < hi; r++ {
			s0 := d0[r] * x0[r]
			s1 := d1[r] * x1[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				c := cols[i]
				s0 += f0[i] * x0[c]
				s1 += f1[i] * x1[c]
			}
			y0[r], y1[r] = s0, s1
		}
		v += 2
	}
	if v < k {
		f0, d0, x0, y0 := fvs[v], dgs[v], xs[v], ys[v]
		for r := lo; r < hi; r++ {
			s0 := d0[r] * x0[r]
			for i := rp[r]; i < rp[r+1]; i++ {
				s0 += f0[i] * x0[cols[i]]
			}
			y0[r] = s0
		}
	}
}
