package powergrid

import "sync/atomic"

// meshSolves counts unit-drop evaluations: one per grid size per process
// (the unit table), so it counts grid sizes seen, not Mesh.Solve calls.
// The daemon exports it on /metrics.
var meshSolves atomic.Uint64

// SolveStats is a point-in-time snapshot of the mesh-solve counters.
type SolveStats struct {
	// Solves is the number of unit drops evaluated: one per grid size per
	// process, however many meshes of that size were solved.
	Solves uint64
	// Iterations and Batched are always 0: φ(n) is a closed form, so no
	// solve iterates, and no sweep batches or primes mesh solves. The
	// fields stay because the benchmark harness reads them.
	Iterations, Batched uint64
}

// ReadSolveStats snapshots the counters for /metrics.
func ReadSolveStats() SolveStats {
	return SolveStats{Solves: meshSolves.Load()}
}
