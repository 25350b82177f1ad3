package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/verify"
)

// TestMain lets the test binary stand in for the benchmark command, so
// flow_sdp_1core's GOMAXPROCS=1 re-exec also works under `go test`.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runSmall runs one workload on small-suite designs for one pass and
// returns its output lines and parsed result.
func runSmall(t *testing.T, workload, trace string) ([]string, report) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", "1", "-seconds", "0", "-trace", trace, "-small", "-workdir", t.TempDir()}
	if code := realMain(args, &out); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	return lines, rep
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricEmittedWithUnit runs every workload, untraced and traced,
// and requires exactly the metrics BENCHMARK.json declares, each with its
// declared unit, and a passing correctness verdict.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
			_, rep := runSmall(t, w.Name, trace)
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDigestsInvariantAcrossGOMAXPROCS: flow_sdp and flow_sdp_1core (a
// GOMAXPROCS=1 child process) must commit bitwise-identical layers.
func TestDigestsInvariantAcrossGOMAXPROCS(t *testing.T) {
	digests := func(workload string) (map[string]string, string) {
		lines, rep := runSmall(t, workload, "0")
		if !rep.Correct {
			t.Fatalf("%s: incorrect run", workload)
		}
		out, procs := map[string]string{}, ""
		for _, l := range lines {
			f := strings.Fields(l)
			switch {
			case len(f) == 6 && f[0] == "digest":
				out[f[3]+"/"+f[4]] = f[5]
			case len(f) == 2 && f[0] == "gomaxprocs":
				procs = f[1]
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s printed no digest", workload)
		}
		return out, procs
	}
	two, _ := digests("flow_sdp")
	one, procs := digests("flow_sdp_1core")
	if procs != "1" {
		t.Fatalf("flow_sdp_1core ran at GOMAXPROCS=%s", procs)
	}
	for k, v := range two {
		if one[k] != v {
			t.Errorf("%s: digest %s at GOMAXPROCS=1, %s at the default", k, one[k], v)
		}
	}
}

// TestCorruptStateIsCaught: the flow's correctness check must fail on a
// state corrupted in each invariant class, so it cannot pass silently.
func TestCorruptStateIsCaught(t *testing.T) {
	p, err := designParams("newblue1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runDesign(context.Background(), p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	clean := newReport()
	checkDesign(r, clean, &sink)
	if !clean.Correct {
		t.Fatalf("clean state failed the check:\n%s", sink.String())
	}
	rng := rand.New(rand.NewSource(7))
	for _, class := range []verify.Class{verify.ClassCapacity, verify.ClassAssignment, verify.ClassTiming} {
		c, ok := verify.CorruptState(rng, r.st, class)
		if !ok {
			t.Fatalf("no %s corruption target", class)
		}
		rep := newReport()
		checkDesign(r, rep, &sink)
		c.Revert()
		if rep.Correct {
			t.Errorf("%s corruption passed the check: %s", class, c.Desc)
		}
	}
}
