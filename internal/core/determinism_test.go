package core

import (
	"testing"

	"repro/internal/timing"
)

// TestColdRunsAreDeterministic pins the solve cache's contract: its
// accelerations (factor reuse, byte-identical memo) are bitwise-neutral, so
// two runs from identical states must agree exactly.
func TestColdRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: determinism property, no concurrency")
	}
	run := func() (timing.Metrics, int) {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.After, res.Rounds
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Fatalf("default (cold) runs diverged: %+v/%d vs %+v/%d", a1, r1, a2, r2)
	}
}

// BenchmarkOptimizeRound measures one full CPLA round — partition, parallel
// SDP solves, mapping, commit, incremental retiming — with allocation
// accounting. State preparation is excluded from the timed region.
func BenchmarkOptimizeRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := prepare(b, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		b.StartTimer()
		if _, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
