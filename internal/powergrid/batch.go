package powergrid

// SolveMeshBatch returns the max IR drop of each mesh in order: a loop of
// Mesh.Solve, so every drop is bit-identical to what meshes[i].Solve()
// returns. The first error fails the whole call. It stays only because the
// benchmark harness calls it.
func SolveMeshBatch(meshes []*Mesh) ([]float64, error) {
	if len(meshes) == 0 {
		return nil, nil
	}
	drops := make([]float64, len(meshes))
	for i, m := range meshes {
		drop, err := m.Solve()
		if err != nil {
			return nil, err
		}
		drops[i] = drop
	}
	return drops, nil
}

// PrimeSolves evaluates the unit drop of each distinct grid size among the
// meshes that is not evaluated yet, so their later Solve calls only scale
// it. Meshes of an invalid size are skipped. It stays only because the
// benchmark harness calls it.
func PrimeSolves(meshes []*Mesh) {
	for _, m := range meshes {
		if validMeshN(m.N) {
			unitDrops.drop(m.N)
		}
	}
}
