// Command benchjson runs the repository's performance benchmarks through
// `go test -bench` and distills the output into one machine-readable JSON
// document (by convention committed as BENCH_<pr>.json), so performance
// claims in review are pinned to numbers a script can diff rather than
// prose. The default selection covers the solver kernels (per-variant
// ns/op, allocs/op, and solver iteration counts), the batched sweep
// solve, the RC-transient validator, and the full-report wall clock at
// each worker count. With -cpu the whole
// selection repeats per GOMAXPROCS value, pinning the serial/parallel
// matrix in one document.
//
// A prior run's JSON can be attached under "baseline" with -baseline,
// putting before/after in a single committed file:
//
//	go run ./cmd/benchjson -out BENCH_3.json -baseline bench_seed.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Report is the top-level JSON document.
type Report struct {
	// GeneratedAt is the RFC 3339 run timestamp.
	GeneratedAt string `json:"generated_at"`
	// GoVersion and CPU identify the toolchain and the machine;
	// GOMAXPROCS is the parallelism the numbers were taken at.
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Bench is the -bench regexp the run used; Benchtime the -benchtime.
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	// CPUList is the -cpu matrix the run used (empty: the ambient
	// GOMAXPROCS only). With a matrix, each benchmark repeats once per
	// value and its row records which one under "gomaxprocs".
	CPUList string `json:"cpu_list,omitempty"`
	// Benchmarks holds one entry per benchmark (or sub-benchmark) line.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Baseline optionally embeds a previous report for before/after
	// comparison in one file.
	Baseline *Report `json:"baseline,omitempty"`
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	// Name is the full benchmark path, e.g.
	// "BenchmarkMeshSolve/n=63/MG-workspace".
	Name string `json:"name"`
	// N is the harness iteration count the stats were averaged over.
	N int64 `json:"n"`
	// GOMAXPROCS is the parallelism this row ran at, parsed from the
	// `-N` suffix the bench harness appends (absent suffix means 1).
	// With `-cpu 1,4` runs the same Name appears once per value.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present when the run used -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric units (e.g. solver "iters").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		out       = flag.String("out", "", "output file (default stdout)")
		bench     = flag.String("bench", "BenchmarkMeshSolve|BenchmarkSweepBatch|BenchmarkValidationRCSim|BenchmarkFullReport", "go test -bench regexp")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value")
		pkg       = flag.String("pkg", ".", "package pattern holding the benchmarks")
		cpu       = flag.String("cpu", "", "go test -cpu matrix, e.g. 1,4 (each benchmark repeats per GOMAXPROCS value)")
		baseline  = flag.String("baseline", "", "prior benchjson output to embed under \"baseline\"")
	)
	flag.Parse()

	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Bench:       *bench,
		Benchtime:   *benchtime,
		CPUList:     *cpu,
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		rep.Baseline = &Report{}
		if err := json.Unmarshal(data, rep.Baseline); err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *baseline, err))
		}
		// A baseline-of-a-baseline would nest unboundedly; keep one level.
		rep.Baseline.Baseline = nil
	}

	argv := []string{"test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem"}
	if *cpu != "" {
		argv = append(argv, "-cpu", *cpu)
	}
	cmd := exec.Command("go", append(argv, *pkg)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	// Benchmarks print before a potential failure; surface both.
	os.Stderr.Write(raw)
	if err != nil {
		fatal(fmt.Errorf("go test -bench: %w", err))
	}
	rep.CPU, rep.Benchmarks = parseBenchOutput(string(raw))
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched %q", *bench))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// parseBenchOutput extracts the cpu: header and every benchmark line from
// `go test -bench` output. Lines look like:
//
//	BenchmarkX/sub-8  	 123	 456 ns/op	 7.0 iters	 0 B/op	 0 allocs/op
//
// i.e. name, iteration count, then value/unit pairs.
func parseBenchOutput(out string) (cpu string, benches []Benchmark) {
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		b := Benchmark{Name: name, GOMAXPROCS: procs, N: n}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := val
				b.BytesPerOp = &v
			case "allocs/op":
				v := val
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		benches = append(benches, b)
	}
	return cpu, benches
}

// splitProcSuffix separates the trailing -<GOMAXPROCS> the bench harness
// appends when GOMAXPROCS > 1, keeping names stable across machines and
// -cpu matrix values while preserving the parallelism as data. The harness
// omits the suffix at GOMAXPROCS = 1, so a bare name means 1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs < 1 {
		return name, 1
	}
	return name[:i], procs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
