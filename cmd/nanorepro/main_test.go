package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main() on its own
// arguments instead of the tests, so a test can drive the real command
// line, flag parsing and exit status included, by re-executing itself.
const runMainEnv = "NANOREPRO_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nanorepro runs the command with args and returns its exit code, stdout
// and stderr.
func nanorepro(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestInputChecks: every malformed invocation is refused up front with
// exit status 1, a message naming the problem, and no report output.
func TestInputChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown format", []string{"-format", "xml"}, `unknown -format "xml"`},
		{"csv dir outside text", []string{"-csv", t.TempDir(), "-format", "json"}, "-csv, -plot, and -v only apply to -format text"},
		{"trace with only", []string{"-trace", "../../traces/virus.json", "-only", "t1"}, "-trace is its own mode"},
		{"unknown artifact", []string{"-only", "t1,bogus"}, "unknown artifact id(s) [bogus]"},
		{"mesh-n too small", []string{"-only", "c8", "-mesh-n", "2"}, "mesh-n 2 too small"},
		{"mesh-n too large", []string{"-only", "c8", "-mesh-n", "5000"}, "mesh-n 5000 too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := nanorepro(t, tc.args...)
			if code != 1 {
				t.Errorf("exit status %d, want 1 (stderr %q)", code, stderr)
			}
			if !strings.HasPrefix(stderr, "nanorepro: ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q, want a nanorepro: message containing %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("refused invocation wrote output:\n%s", stdout)
			}
		})
	}
}

// TestListSucceeds pins the harness: a valid invocation runs main() to a
// zero exit with its output on stdout.
func TestListSucceeds(t *testing.T) {
	code, stdout, stderr := nanorepro(t, "-list")
	if code != 0 || stderr != "" || !strings.HasPrefix(stdout, "t1 ") {
		t.Fatalf("-list: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
}

// TestTraceCSVCreatesDir: -trace with -csv creates a missing directory,
// as the report path does, and writes the trace's figure CSV into it.
func TestTraceCSVCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "sub")
	code, _, stderr := nanorepro(t, "-trace", "../../traces/virus.json", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no .csv file in %s (err %v)", dir, err)
	}
}

// TestReportMatchesGoldens runs the command's own report path — no flags,
// -format json and -format csv, serial and on four workers — and compares
// each output byte for byte with the golden files internal/repro pins.
func TestReportMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{nil, "report.golden"},
		{[]string{"-format", "json"}, "report.golden.json"},
		{[]string{"-format", "csv"}, "report.golden.csv"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "repro", "testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []string{"1", "4"} {
			args := append([]string{"-jobs", jobs}, tc.args...)
			code, stdout, stderr := nanorepro(t, args...)
			if code != 0 || stderr != "" {
				t.Errorf("%v: exit status %d, stderr %q", args, code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("%v: output differs from %s (%d vs %d bytes)", args, tc.golden, len(stdout), len(want))
			}
		}
	}
}
