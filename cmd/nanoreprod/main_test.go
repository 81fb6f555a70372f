package main

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run main() on its own
// arguments instead of the tests, so a test can drive the real daemon,
// signal handling and exit status included, by re-executing itself.
const runMainEnv = "NANOREPROD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMDrainsCleanly starts the daemon on a free port, waits for it
// to serve, and sends SIGTERM: the serve goroutine must exit through the
// graceful shutdown, so the process exits 0 and logs "drained cleanly".
func TestSIGTERMDrainsCleanly(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	logged := make(chan string, 1)
	go func() {
		// Read the whole log before Wait: Wait closes the pipe.
		var log strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				logged <- addr
			}
		}
		io.Copy(io.Discard, stderr)
		err := cmd.Wait()
		if err == nil && !strings.Contains(log.String(), "drained cleanly") {
			err = errors.New("no \"drained cleanly\" in the log:\n" + log.String())
		}
		exited <- err
	}()
	var addr string
	select {
	case addr = <-logged:
	case err := <-exited:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not log its address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon still running 30 s after SIGTERM")
	}
}
