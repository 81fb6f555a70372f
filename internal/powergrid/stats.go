package powergrid

import "sync/atomic"

// Cumulative mesh-solve telemetry. No solve may drop the iteration count
// its solver reports (TestSolveRecordsIterations pins it). The MG-PCG
// path is fast precisely because its iteration count stays flat
// (≤ 25 through n = 255), and a regression there — a broken prolongation,
// a bad smoother weight — shows up as iteration creep long before results
// go wrong. Every Mesh.Solve accounts its count here; the daemon exports
// both counters on /metrics so that creep is visible on a dashboard, not
// just in benchmarks.
var meshSolves, meshSolveIters, meshBatchedSolves atomic.Uint64

// SolveStats is a point-in-time snapshot of the mesh-solve counters.
type SolveStats struct {
	// Solves is the number of completed mesh solves (solo Mesh.Solve calls
	// plus every mesh sweep priming solved or fed); Iterations is the total
	// MG-PCG iterations they spent. Iterations/Solves is the health number:
	// near-constant per mesh size by construction.
	Solves, Iterations uint64
	// Batched counts the subset of Solves run by SolveMeshBatch, that is
	// by sweep priming (PrimeSolves), plus the duplicate variants a primed
	// solve fed. It is not a separate kernel: each one is a solo MG-PCG
	// solve. Sweeps should push it toward Solves; a sweep-heavy deployment
	// with Batched ≈ 0 means the priming wiring regressed and every
	// variant solves its mesh again.
	Batched uint64
}

// ReadSolveStats snapshots the counters for /metrics.
func ReadSolveStats() SolveStats {
	return SolveStats{
		Solves:     meshSolves.Load(),
		Iterations: meshSolveIters.Load(),
		Batched:    meshBatchedSolves.Load(),
	}
}

func recordSolve(iters int) {
	meshSolves.Add(1)
	meshSolveIters.Add(uint64(iters))
}

// recordBatchedSolve accounts one mesh of sweep priming: a mesh solve like
// any other (the Solves/Iterations contract is per system solved) plus
// the batched-path counter.
func recordBatchedSolve(iters int) {
	recordSolve(iters)
	meshBatchedSolves.Add(1)
}
