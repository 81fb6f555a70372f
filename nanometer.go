// Package nanometer is a reproduction, as a Go library, of D. Sylvester and
// H. Kaul, "Future Performance Challenges in Nanometer Design", Proc. 38th
// Design Automation Conference (DAC), 2001.
//
// The paper analyzes power-related limits to high-performance IC design at
// the 180–35 nm nodes of the ITRS 2000 roadmap: dynamic-power packaging
// limits and dynamic thermal management (§2.1), global-signaling power and
// low-swing alternatives (§2.2), library optimization (§2.3), multi-Vdd
// clustered voltage scaling (§2.4), static-power scaling through its compact
// MOSFET model (§3.1, Eqs. 2–4), dual-Vth techniques (§3.2), the combined
// multi-Vdd + multi-Vth + re-sizing approach (§3.3), and power-distribution
// IR-drop/di/dt analysis (§4).
//
// The implementation lives in the internal packages; the runnable surfaces
// are:
//
//   - cmd/nanorepro  — regenerates every table, figure, and quantified
//     claim; runs roadmap scenarios (-scenario) and workload traces (-trace)
//   - cmd/nanoreprod — serves the same artifacts over HTTP
//
// The packages' example_test.go files are the library walkthroughs.
//
// DESIGN.md maps each subsystem and experiment to its module; EXPERIMENTS.md
// records paper-vs-measured values.
package nanometer

// Version identifies the reproduction release.
const Version = "1.0.0"

// Paper cites the reproduced publication.
const Paper = "Sylvester & Kaul, \"Future Performance Challenges in Nanometer Design\", DAC 2001"
