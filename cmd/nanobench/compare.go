package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkDef is BENCHMARK.json: the benchmark's command, workloads and
// metrics with their bounds.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := decodeStrict(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints, for every end-to-end metric of every workload, the
// median and quartiles of both sides and a verdict against the metric's
// bound. With one ledger it compares the ledger's first set of runs with
// its second. It is advisory: the verdicts do not set the exit status.
func runCompare(w io.Writer, files []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := readJSONFile(filepath.Join(root, "BENCHMARK.json"), &def); err != nil {
		return err
	}
	var base, next []ledgerRun
	switch len(files) {
	case 1:
		var l ledger
		if err := readJSONFile(files[0], &l); err != nil {
			return err
		}
		for _, r := range l.Runs {
			switch {
			case r.Trace != 0:
			case r.Set == 1:
				base = append(base, r)
			case r.Set == 2:
				next = append(next, r)
			}
		}
	case 2:
		var a, b ledger
		if err := readJSONFile(files[0], &a); err != nil {
			return err
		}
		if err := readJSONFile(files[1], &b); err != nil {
			return err
		}
		base, next = untraced(a.Runs), untraced(b.Runs)
	default:
		return fmt.Errorf("-compare takes BASE.json NEW.json, or one ledger holding two sets")
	}
	if len(base) == 0 || len(next) == 0 {
		return fmt.Errorf("-compare: a side has no untraced runs")
	}
	fmt.Fprintf(w, "%-10s %-16s %12s %23s %12s %23s %8s  %s\n",
		"workload", "metric", "base", "[q1 q3]", "new", "[q1 q3]", "change", "verdict (bound)")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			bv, nv := values(base, wl.Name, m.Name), values(next, wl.Name, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			b1, bm, b3 := quartiles(bv)
			n1, nm, n3 := quartiles(nv)
			change := ratio(nm-bm, math.Abs(bm))
			fmt.Fprintf(w, "%-10s %-16s %12.6g [%10.4g %10.4g] %12.6g [%10.4g %10.4g] %+7.1f%%  %s (%g)\n",
				wl.Name, m.Name, bm, b1, b3, nm, n1, n3, 100*change,
				verdict(bv, nv, m.Better == "higher", m.Bound), m.Bound)
		}
	}
	return nil
}

func untraced(runs []ledgerRun) []ledgerRun {
	var out []ledgerRun
	for _, r := range runs {
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []ledgerRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges new against base for a metric that may worsen by bound
// (a share of base's median). When either side's interquartile spread
// exceeds the bound the medians cannot resolve a change of that size, and
// only a complete separation of the runs decides.
func verdict(base, next []float64, higherBetter bool, bound float64) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	b1, bm, b3 := quartiles(base)
	n1, nm, n3 := quartiles(next)
	spread := math.Max(ratio(b3-b1, math.Abs(bm)), ratio(n3-n1, math.Abs(nm)))
	if spread > bound {
		bs, ns := sortedCopy(base), sortedCopy(next)
		bLo, bHi, nLo, nHi := sign*bs[0], sign*bs[len(bs)-1], sign*ns[0], sign*ns[len(ns)-1]
		switch {
		case math.Max(nLo, nHi) < math.Min(bLo, bHi):
			return "better"
		case math.Min(nLo, nHi) > math.Max(bLo, bHi):
			return "WORSE"
		}
		return fmt.Sprintf("unresolved: spread %.1f%%", 100*spread)
	}
	worse := sign * (nm - bm) / math.Abs(bm)
	switch {
	case worse > bound:
		return "WORSE"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// ledger is the file -out writes: the host, and every child run's result.
type ledger struct {
	Host    host        `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []ledgerRun `json:"runs"`
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// ledgerRun is one child run: set 0 holds traced runs.
type ledgerRun struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	outcome
}

// cpuModel returns the CPU model name the kernel reports, if it does.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
