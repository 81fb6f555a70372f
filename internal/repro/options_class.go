package repro

// Every Options field must be explicitly classified. computeSide fields
// reach the models and MUST be hashed by computeKey; encodeOnly fields
// affect encoding or cache policy only and MUST NOT be. The classification
// lives here in the package proper — not in a test file — because two
// guards read it: TestComputeKeyCoversOptions (options_guard_test.go)
// perturbs each field at run time and checks computeKey actually reacts
// per its class, and the cachekey analyzer (internal/analyzers) reads
// these literals statically and reports an unclassified or misclassified
// field at its declaration before any test runs. Whoever adds an Options
// field decides its class in the same change, or both gates fail.
var (
	computeSideFields = map[string]bool{
		"MeshN":    true,
		"Scenario": true,
	}
	encodeOnlyFields = map[string]bool{
		"CSVDir":  true,
		"Plot":    true,
		"Verbose": true,
		"NoCache": true,
	}
)
