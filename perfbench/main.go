// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, times only what a user waits for, checks the
// outputs, and prints every metric by name with its unit. With -trace 1 it
// runs the same workload again with spans around the calls it makes into
// each layer's public functions and prints the per-layer breakdown instead.
//
//	perfbench -workload flow_sdp -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":6.9,"unit":"s"},...}}
//
// See README.md in this directory for the workloads, the metrics and what
// each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small swaps every design for its small-suite shape (self-tests only).
	small bool
	// workDir holds the run's scratch files (session stores); it is
	// removed when the run ends.
	workDir string
	// tracePath is where the traced run writes its spans.
	tracePath string
	// out receives the progress lines (digests, trace summary).
	out io.Writer
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"flow_sdp":       runFlow,
	"flow_sdp_1core": runFlow,
	"flow_lagrange":  runFlow,
	"eco_service":    runECO,
}

// errIncorrect marks a run whose outputs failed a correctness check; the
// report is still printed, with correct=false.
var errIncorrect = errors.New("correctness check failed")

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: flow_sdp, flow_sdp_1core, flow_lagrange, eco_service")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure (at least one full pass always runs)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	small := fs.Bool("small", false, "use the small-suite shape of every design (self-tests)")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "run"), "scratch directory for session stores; traces go to its traces/ subdirectory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	// linalg sizes its kernel pool from GOMAXPROCS at package init, so the
	// one-core program only exists in a process started with GOMAXPROCS=1.
	if *workload == "flow_sdp_1core" && runtime.GOMAXPROCS(0) != 1 {
		return reexecOneCore(args, stdout)
	}

	cfg := runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		small:     *small,
		workDir:   filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		tracePath: filepath.Join(*workDir, "traces", fmt.Sprintf("%s-%d.json", *workload, *seed)),
		out:       stdout,
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(cfg.tracePath), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	rep, err := run(cfg)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if werr := rep.write(stdout, cfg.trace); werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, werr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 3
	}
	return 0
}

// reexecOneCore runs this same invocation in a child process started with
// GOMAXPROCS=1 and relays its output and exit code.
func reexecOneCore(args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", childEnv+"=1")
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "perfbench: one-core child: %v\n", err)
		return 1
	}
	return 0
}

// childEnv makes a test binary behave as the benchmark command, so the
// one-core re-exec also works under `go test`.
const childEnv = "PERFBENCH_AS_MAIN"

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metricValue{}}
}

// set records a metric under its declared unit.
func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// write prints the result line after checking that exactly the metrics of
// the requested kind are present.
func (r *report) write(w io.Writer, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := *r
	out.Metrics = make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = v
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// fail records a failed correctness check.
func (r *report) fail(out io.Writer, format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(out, "CHECK FAILED: "+format+"\n", args...)
}

func (r *report) err() error {
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
