// Command benchkernels measures the dense-kernel and solver benchmarks
// behind BENCH_kernels.json and gates the fast-path allocation budget.
//
// Full mode (the `make bench-kernels` target) runs the projection, matmul
// and ADMM solve benchmarks, then rewrites BENCH_kernels.json: the "after"
// section and the "baseline_allocs" gate values are regenerated from the
// fresh run while "before" (the pre-fast-path tree, measured once) is
// preserved.
//
//	go run ./cmd/benchkernels
//
// Gate mode (wired into scripts/check.sh) re-runs only the cheap
// allocation-sensitive kernel benchmarks a fixed number of iterations, once
// per GOMAXPROCS value in gateProcs, and fails if any allocs/op exceeds the
// baseline recorded for that GOMAXPROCS — the projection fast path's
// zero-allocation steady state is a regression target, not an accident.
//
//	go run ./cmd/benchkernels -gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

const recordPath = "BENCH_kernels.json"

// gateBenchmarks are the kernels whose steady-state allocation counts the
// gate pins. They run with -benchtime 64x, enough for the workspace warmup
// allocations to amortize below 0.5 allocs/op when the steady state is
// allocation-free.
var gateBenchmarks = []string{
	"BenchmarkProjectPSDPartial96",
	"BenchmarkProjectPSDFull96",
	"BenchmarkMulInto128",
}

// gateProcs are the GOMAXPROCS values the gate measures at, each against
// its own baseline. The kernel pool is sized when the process starts, so
// each value runs in its own `go test` process. At 1 the kernels never fan
// out and stay allocation-free; at 2 each parallel kernel call starts its
// helper goroutine, which costs a few allocations per op that must not grow.
var gateProcs = []int{1, 2}

// measurement is one benchmark line's parsed metrics.
type measurement struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op,omitempty"`
	AllocsOp float64 `json:"allocs_op"`
	AvgTcp   float64 `json:"avgTcp,omitempty"`
	MaxTcp   float64 `json:"maxTcp,omitempty"`
}

// record is the BENCH_kernels.json document.
type record struct {
	Description string                 `json:"description"`
	Commands    []string               `json:"commands"`
	Before      map[string]measurement `json:"before"`
	After       map[string]measurement `json:"after"`
	// BaselineAllocs holds the gate's allocs/op ceilings by GOMAXPROCS
	// ("1", "2") and benchmark name.
	BaselineAllocs map[string]map[string]float64 `json:"baseline_allocs"`
	Highlights     map[string]string             `json:"highlights"`
}

func main() {
	gate := flag.Bool("gate", false, "regression gate: re-measure kernel allocs/op and fail if any exceeds the baseline recorded in BENCH_kernels.json")
	flag.Parse()
	if *gate {
		os.Exit(runGate())
	}
	os.Exit(runFull())
}

func runGate() int {
	rec, err := readRecord()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
		return 1
	}
	fail := false
	for _, procs := range gateProcs {
		got, err := runGateBench(procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
			return 1
		}
		key := strconv.Itoa(procs)
		for _, name := range gateBenchmarks {
			base, ok := rec.BaselineAllocs[key][name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchkernels: no baseline_allocs[%q] entry for %s in %s\n", key, name, recordPath)
				fail = true
				continue
			}
			m, ok := got[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchkernels: %s did not run at GOMAXPROCS=%d\n", name, procs)
				fail = true
				continue
			}
			// Warmup allocations amortized over 64 iterations allow < 1
			// extra alloc/op of headroom above an integer baseline.
			if m.AllocsOp > base+0.99 {
				fmt.Fprintf(os.Stderr, "benchkernels: %s at GOMAXPROCS=%d allocates %.2f allocs/op, baseline %.0f — fast-path allocation regression\n",
					name, procs, m.AllocsOp, base)
				fail = true
				continue
			}
			fmt.Printf("benchkernels: %s at GOMAXPROCS=%d %.2f allocs/op (baseline %.0f) ok\n", name, procs, m.AllocsOp, base)
		}
	}
	if fail {
		return 1
	}
	return 0
}

// runGateBench runs the gate benchmarks in a process started with the given
// GOMAXPROCS.
func runGateBench(procs int) (map[string]measurement, error) {
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	return runBench(env, "./internal/linalg/", strings.Join(gateBenchmarks, "$|")+"$", "-benchtime", "64x")
}

func runFull() int {
	rec, err := readRecord()
	if err != nil {
		// First generation: start an empty record; "before" must be filled
		// by measuring the parent tree.
		rec = &record{}
	}
	suites := []struct{ pkg, pattern string }{
		{"./internal/linalg/", "BenchmarkEigenSymQL64$|BenchmarkProjectPSD64$|BenchmarkProjectPSDPartial96$|BenchmarkProjectPSDPartialBalanced96$|BenchmarkProjectPSDFull96$|BenchmarkMinEigenvalue96$|BenchmarkMatMul64$|BenchmarkMulInto128$"},
		{"./internal/sdp/", "BenchmarkSolvePartitionSized$|BenchmarkSolveLarge$"},
		{".", "BenchmarkTable2SDP$"},
	}
	after := map[string]measurement{}
	for _, s := range suites {
		fmt.Printf("benchkernels: benchmarking %s (%s)\n", s.pkg, s.pattern)
		got, err := runBench(nil, s.pkg, s.pattern)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
			return 1
		}
		for k, v := range got {
			after[k] = v
		}
	}
	rec.After = after
	rec.BaselineAllocs = map[string]map[string]float64{}
	for _, procs := range gateProcs {
		got, err := runGateBench(procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
			return 1
		}
		base := map[string]float64{}
		for _, name := range gateBenchmarks {
			if m, ok := got[name]; ok {
				// Integer floor: steady-state allocs are integral;
				// fractional residue is warmup amortization.
				base[name] = float64(int(m.AllocsOp))
			}
		}
		rec.BaselineAllocs[strconv.Itoa(procs)] = base
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
		return 1
	}
	if err := os.WriteFile(recordPath, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchkernels: %v\n", err)
		return 1
	}
	fmt.Printf("benchkernels: wrote %s (%d after measurements)\n", recordPath, len(after))
	return 0
}

func readRecord() (*record, error) {
	data, err := os.ReadFile(recordPath)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", recordPath, err)
	}
	return &rec, nil
}

// benchLine matches one `go test -bench` result line; the -N GOMAXPROCS
// suffix is absent on single-core runs.
var benchLine = regexp.MustCompile(`^(Benchmark\w+)(?:-\d+)?\s+\d+\s+(.*)$`)

// runBench executes one benchmark suite, in an environment of env when it
// is non-nil, and parses the per-benchmark metrics (ns/op, B/op, allocs/op
// plus any ReportMetric units).
func runBench(env []string, pkg, pattern string, extra ...string) (map[string]measurement, error) {
	args := append([]string{"test", "-run", "NONE", "-bench", pattern, "-benchmem", pkg}, extra...)
	cmd := exec.Command("go", args...)
	cmd.Env = env
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	got := map[string]measurement{}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var meas measurement
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				meas.NsOp = v
			case "B/op":
				meas.BytesOp = v
			case "allocs/op":
				meas.AllocsOp = v
			case "avgTcp":
				meas.AvgTcp = v
			case "maxTcp":
				meas.MaxTcp = v
			}
		}
		got[m[1]] = meas
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("no benchmark results in output of go %s:\n%s", strings.Join(args, " "), out)
	}
	return got, nil
}
