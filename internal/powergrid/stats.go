package powergrid

import "sync/atomic"

// Cumulative mesh-solve telemetry. Every MG-PCG solve that runs accounts
// its iteration count here (TestSolveRecordsIterations pins it). Each grid
// size is solved once per process (the unit table), so Solves counts grid
// sizes seen, not Mesh.Solve calls. The MG-PCG path is fast precisely
// because its iteration count stays flat (≤ 25 through n = 255), and a
// regression there — a broken prolongation, a bad smoother weight — shows
// up as iteration creep long before results go wrong. The daemon exports
// the counters on /metrics so that creep is visible on a dashboard, not
// just in benchmarks.
var meshSolves, meshSolveIters atomic.Uint64

// SolveStats is a point-in-time snapshot of the mesh-solve counters.
type SolveStats struct {
	// Solves is the number of MG-PCG mesh solves that ran: one unit solve
	// per grid size per process, however many meshes of that size were
	// solved. Iterations is the total MG-PCG iterations they spent.
	// Iterations/Solves is the health number: near-constant per mesh size
	// by construction.
	Solves, Iterations uint64
	// Batched is always 0: no sweep batches or primes mesh solves any
	// more, since each grid size is solved once. The field stays because
	// the benchmark harness reads it.
	Batched uint64
}

// ReadSolveStats snapshots the counters for /metrics.
func ReadSolveStats() SolveStats {
	return SolveStats{
		Solves:     meshSolves.Load(),
		Iterations: meshSolveIters.Load(),
	}
}
