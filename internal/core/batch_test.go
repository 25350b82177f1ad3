package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sdp"
	"repro/internal/timing"
)

// serialLeafSolver is the test oracle for the batched dispatcher: it solves
// every pending leaf with Workspace.SolveCtx, one after another in input
// order, reusing a single workspace.
type serialLeafSolver struct{}

func (serialLeafSolver) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, _ sdp.BatchOptions) *sdp.BatchResult {
	br := &sdp.BatchResult{
		Results: make([]*sdp.Result, len(probs)),
		States:  make([]*sdp.State, len(probs)),
		Errs:    make([]error, len(probs)),
	}
	ws := sdp.NewWorkspace()
	for i, p := range probs {
		var warm *sdp.State
		if warms != nil {
			warm = warms[i]
		}
		res, err := ws.SolveCtx(ctx, p, opt, warm)
		if err != nil {
			br.Errs[i] = err
			continue
		}
		br.Results[i], br.States[i] = res, ws.State()
	}
	return br
}

// solveSDP solves one built partition problem outside the round loop: IPM
// through solveIPM, ADMM through the same cache probe and finish as a
// batched round, with the solve itself done by the serial oracle.
func solveSDP(ctx context.Context, p *problem, opt Options, cache *SolveCache, key uint64) ([][]float64, leafStats, error) {
	if opt.SDPSolver == SolverIPM {
		return solveIPM(ctx, p, opt)
	}
	sl := buildSDPLeaf(p)
	pr := probeSDPCache(sl, opt, cache, key)
	if pr.xFrac != nil {
		return pr.xFrac, pr.ls, nil
	}
	br := serialLeafSolver{}.SolveBatch(ctx, []*sdp.Problem{sl.prob}, leafSDPOptions(opt), []*sdp.State{pr.warm}, sdp.BatchOptions{})
	if err := br.Errs[0]; err != nil {
		return nil, leafStats{dim: sl.dim()}, err
	}
	out, ls := finishSDPLeaf(sl, br.Results[0], br.States[0], pr.cache, opt)
	return out, ls, nil
}

// TestBatchedRoundMatchesPerLeaf pins the batched dispatcher's core
// contract: the default Optimize (largest-first lanes over every pending
// leaf) and the same run with the serial per-leaf oracle as its LeafSolver
// run the exact same build, cache-probe, solve and mapping code on each
// leaf, so a full optimization must agree bitwise — identical timing
// metrics, round counts, per-round ADMM iteration totals, unconverged
// counts and leaf-size histograms.
func TestBatchedRoundMatchesPerLeaf(t *testing.T) {
	run := func(ls LeafSolver) *Result {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 3, LeafSolver: ls})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	batched := run(nil)
	serial := run(serialLeafSolver{})

	if batched.After != serial.After {
		t.Fatalf("timing metrics diverge: batched %+v, serial %+v", batched.After, serial.After)
	}
	if batched.Rounds != serial.Rounds || batched.SolveErrors != serial.SolveErrors || batched.Unconverged != serial.Unconverged {
		t.Fatalf("rounds/errors/unconverged diverge: batched %d/%d/%d, serial %d/%d/%d",
			batched.Rounds, batched.SolveErrors, batched.Unconverged, serial.Rounds, serial.SolveErrors, serial.Unconverged)
	}
	if len(batched.RoundLog) != len(serial.RoundLog) {
		t.Fatalf("round log length: %d vs %d", len(batched.RoundLog), len(serial.RoundLog))
	}
	sawBatch := false
	for i := range batched.RoundLog {
		b, s := batched.RoundLog[i], serial.RoundLog[i]
		if b.ADMMIters != s.ADMMIters || b.Partitions != s.Partitions || b.MemoHits != s.MemoHits || b.Unconverged != s.Unconverged {
			t.Errorf("round %d: batched iters/parts/memo/unconverged %d/%d/%d/%d, serial %d/%d/%d/%d",
				i+1, b.ADMMIters, b.Partitions, b.MemoHits, b.Unconverged, s.ADMMIters, s.Partitions, s.MemoHits, s.Unconverged)
		}
		if b.LeafSizeHist != s.LeafSizeHist {
			t.Errorf("round %d: leaf-size histograms diverge: %v vs %v", i+1, b.LeafSizeHist, s.LeafSizeHist)
		}
		total := 0
		for _, c := range b.LeafSizeHist {
			total += c
		}
		if total != b.Partitions {
			t.Errorf("round %d: histogram counts %d leaves, round solved %d", i+1, total, b.Partitions)
		}
		if b.Partitions > 0 && b.BatchedLeaves == 0 {
			t.Errorf("round %d: batched path solved %d leaves but reports none batched", i+1, b.Partitions)
		}
		sawBatch = sawBatch || b.BatchedLeaves > 0
	}
	if !sawBatch {
		t.Fatal("no round exercised the batched dispatcher")
	}
}

// TestUnconvergedCounted checks that fresh solves stopping at the ADMM
// iteration cap are counted per round and in the Result: with a 5-iteration
// cap nothing converges, and the counts must match what the OnSDP hook sees.
func TestUnconvergedCounted(t *testing.T) {
	st := prepare(t, 12, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	var mu sync.Mutex
	seen := 0
	res, err := Optimize(st, released, Options{SDPIters: 5, MaxRounds: 2, OnSDP: func(_ *sdp.Problem, r *sdp.Result) {
		if !r.Converged {
			mu.Lock()
			seen++
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconverged == 0 || res.Unconverged != seen {
		t.Fatalf("Result.Unconverged = %d, OnSDP saw %d unconverged solves; want equal and > 0", res.Unconverged, seen)
	}
	sum := 0
	for _, rs := range res.RoundLog {
		if rs.Unconverged > rs.Partitions-rs.MemoHits-rs.RevalHits {
			t.Errorf("round counts %d unconverged of %d fresh solves", rs.Unconverged, rs.Partitions-rs.MemoHits-rs.RevalHits)
		}
		sum += rs.Unconverged
	}
	if sum != res.Unconverged {
		t.Fatalf("RoundLog sums to %d unconverged, Result says %d", sum, res.Unconverged)
	}
}

// TestDefaultSolvesConverge pins the ADMM penalty rule end to end: under
// the default leaf options (150-iteration cap, tol 2e-3, μ₀ = 8) every fresh
// leaf solve of a default run stops because it converged. With the penalty
// update the wrong way round most solves here ran into the cap.
func TestDefaultSolvesConverge(t *testing.T) {
	st := prepare(t, 12, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	res, err := Optimize(st, released, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconverged != 0 {
		t.Fatalf("default run left %d leaf solves unconverged", res.Unconverged)
	}
	if res.RoundLog[0].ADMMIters == 0 {
		t.Fatal("round 1 ran no ADMM iterations; nothing was checked")
	}
}

// roundLeafSet captures the pending leaf set of a real round: round 1 of
// the small-suite instance the bitwise test runs, with the warm states
// (factor-only donations) the round loop hands the dispatcher.
func roundLeafSet(tb testing.TB) ([]*sdp.Problem, []*sdp.State, sdp.Options) {
	tb.Helper()
	st := prepare(tb, 12, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	var c leafSetCapture
	if _, err := Optimize(st, released, Options{MaxRounds: 1, LeafSolver: &c}); err != nil {
		tb.Fatal(err)
	}
	if len(c.probs) == 0 {
		tb.Fatal("round solved no leaves")
	}
	return c.probs, c.warms, c.opt
}

// leafSetCapture records the first batch it is asked to solve, then solves
// it locally.
type leafSetCapture struct {
	probs []*sdp.Problem
	warms []*sdp.State
	opt   sdp.Options
}

func (c *leafSetCapture) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult {
	if c.probs == nil {
		c.probs, c.warms, c.opt = probs, warms, opt
	}
	return sdp.SolveBatchCtx(ctx, probs, opt, warms, bopt)
}

// BenchmarkRoundLeafSetPerLeaf is the parallel per-leaf baseline on a real
// round's pending leaves: one goroutine per leaf, at most GOMAXPROCS
// running, each borrowing a pooled workspace.
func BenchmarkRoundLeafSetPerLeaf(b *testing.B) {
	probs, warms, opt := roundLeafSet(b)
	pool := sync.Pool{New: func() any { return sdp.NewWorkspace() }}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		runLeafParallel(len(probs), runtime.GOMAXPROCS(0), func(i int) {
			ws := pool.Get().(*sdp.Workspace)
			defer pool.Put(ws)
			if _, err := ws.SolveCtx(context.Background(), probs[i], opt, warms[i]); err != nil {
				b.Error(err)
			}
		})
	}
}

// BenchmarkRoundLeafSetBatched solves the same leaves through the
// largest-first dispatcher the round loop uses.
func BenchmarkRoundLeafSetBatched(b *testing.B) {
	probs, warms, opt := roundLeafSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		br := sdp.SolveBatch(probs, opt, warms, sdp.BatchOptions{Workers: runtime.GOMAXPROCS(0)})
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
