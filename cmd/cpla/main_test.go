package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command's main with the
// arguments after the test flags, so CLI exit codes can be checked in a
// child process.
const runMainEnv = "CPLA_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args in a child process and returns its exit
// code and standard error.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running the CLI: %v", err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestRemovedBatchFlagRejected checks that the retired -batch flag (leaf
// dispatch auto|off|float32) makes the CLI exit non-zero before any work,
// instead of being silently ignored.
func TestRemovedBatchFlagRejected(t *testing.T) {
	for _, mode := range []string{"off", "float32", "auto"} {
		assertFlagRejected(t, "-batch", "-bench", "adaptec1", "-batch", mode)
	}
}

// TestRemovedWarmFlagRejected checks the same for the retired -eco -warm
// flag (X-seeded ADMM leaf solves in ECO sessions).
func TestRemovedWarmFlagRejected(t *testing.T) {
	assertFlagRejected(t, "-warm", "-bench", "adaptec1", "-eco", "script.jsonl", "-warm")
	assertFlagRejected(t, "-warm", "-bench", "adaptec1", "-warm=true")
}

// assertFlagRejected runs the CLI with args and requires a non-zero exit
// whose standard error names flag.
func assertFlagRejected(t *testing.T, flag string, args ...string) {
	t.Helper()
	code, stderr := runCLI(t, args...)
	if code == 0 {
		t.Errorf("%v: exit 0, want non-zero", args)
	}
	if !strings.Contains(stderr, flag) {
		t.Errorf("%v: stderr %q does not name %s", args, stderr, flag)
	}
}
