package sdp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// mixedLeafSet builds a round-shaped set of problems with mixed dimensions
// (duplicate dimensions, small and large leaves, varying constraint counts).
func mixedLeafSet(seed int64) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{24, 8, 48, 24, 5, 96, 48, 24, 17, 48}
	probs := make([]*Problem, len(dims))
	for i, n := range dims {
		probs[i] = benchProblem(n, seed+int64(i)*17+int64(rng.Intn(1000)))
	}
	return probs
}

func bitsEqual(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestBatchBitwiseEqualsPerLeaf is the differential property test of the
// batched path: across random instances, input orders, worker counts and
// warm starts, every batched result and donated state must be
// bit-identical — X, objective, residuals, iteration counts — to a serial
// per-leaf Workspace solve of the same problem.
func TestBatchBitwiseEqualsPerLeaf(t *testing.T) {
	opt := Options{MaxIters: 120, Tol: 2e-3}
	for _, seed := range []int64{3, 11, 29} {
		probs := mixedLeafSet(seed)

		// Serial per-leaf reference, plus warm states for a second round.
		refs := make([]*Result, len(probs))
		warms := make([]*State, len(probs))
		for i, p := range probs {
			w := NewWorkspace()
			res, err := w.Solve(p, opt, nil)
			if err != nil {
				t.Fatalf("seed %d: per-leaf solve %d: %v", seed, i, err)
			}
			refs[i] = res
			warms[i] = w.State()
		}

		// perm[j] is the reference index of the j-th batch input: the
		// identity, then a seeded shuffle.
		identity := make([]int, len(probs))
		for i := range identity {
			identity[i] = i
		}
		shuffled := rand.New(rand.NewSource(seed)).Perm(len(probs))
		for _, perm := range [][]int{identity, shuffled} {
			in := make([]*Problem, len(perm))
			for j, i := range perm {
				in[j] = probs[i]
			}
			for _, workers := range []int{1, 2, 5} {
				br := SolveBatch(in, opt, nil, BatchOptions{Workers: workers})
				if err := br.Err(); err != nil {
					t.Fatalf("seed %d workers %d: batch error: %v", seed, workers, err)
				}
				if br.Stats.BatchedLeaves != len(probs) {
					t.Fatalf("seed %d: batched %d of %d leaves", seed, br.Stats.BatchedLeaves, len(probs))
				}
				if br.Stats.Buckets != 6 { // dims {5, 8, 17, 24, 48, 96}
					t.Fatalf("seed %d: got %d distinct dimensions, want 6", seed, br.Stats.Buckets)
				}
				for j, i := range perm {
					res, ref := br.Results[j], refs[i]
					if !bitsEqual(res.X, ref.X) {
						t.Fatalf("seed %d perm %v workers %d leaf %d: X differs from per-leaf solve", seed, perm, workers, i)
					}
					if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) ||
						math.Float64bits(res.PrimalRes) != math.Float64bits(ref.PrimalRes) ||
						math.Float64bits(res.DualRes) != math.Float64bits(ref.DualRes) ||
						res.Iters != ref.Iters || res.Converged != ref.Converged {
						t.Fatalf("seed %d perm %v workers %d leaf %d: scalar outcome differs: %+v vs %+v",
							seed, perm, workers, i, res, ref)
					}
					if st := br.States[j]; st == nil || !bitsEqual(st.X, warms[i].X) || st.Sig != warms[i].Sig {
						t.Fatalf("seed %d perm %v workers %d leaf %d: donated state differs", seed, perm, workers, i)
					}
				}
			}
		}

		// Warm-started second round must also match per-leaf warm solves.
		warmRefs := make([]*Result, len(probs))
		for i, p := range probs {
			res, err := NewWorkspace().Solve(p, opt, warms[i])
			if err != nil {
				t.Fatalf("seed %d: warm per-leaf solve %d: %v", seed, i, err)
			}
			warmRefs[i] = res
		}
		br := SolveBatch(probs, opt, warms, BatchOptions{Workers: 3})
		if err := br.Err(); err != nil {
			t.Fatalf("seed %d: warm batch error: %v", seed, err)
		}
		for i, res := range br.Results {
			if !bitsEqual(res.X, warmRefs[i].X) || res.Iters != warmRefs[i].Iters || !res.Warm {
				t.Fatalf("seed %d leaf %d: warm-started batch result differs from per-leaf", seed, i)
			}
		}
	}
}

// TestBatchErrorsAreLeafLocal checks malformed leaves error individually
// without poisoning their bucket peers.
func TestBatchErrorsAreLeafLocal(t *testing.T) {
	good := benchProblem(24, 9)
	bad := benchProblem(24, 10)
	bad.Constraints[3].A.Entries[0].J = 99 // out of range for n=24
	br := SolveBatch([]*Problem{good, bad, nil}, Options{MaxIters: 50, Tol: 2e-3}, nil, BatchOptions{})
	if br.Errs[0] != nil || br.Results[0] == nil {
		t.Fatalf("good leaf failed: %v", br.Errs[0])
	}
	if br.Errs[1] == nil {
		t.Fatal("malformed leaf did not error")
	}
	if br.Errs[2] == nil {
		t.Fatal("nil leaf did not error")
	}
	ref, err := NewWorkspace().Solve(good, Options{MaxIters: 50, Tol: 2e-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(br.Results[0].X, ref.X) {
		t.Fatal("good leaf result not bitwise-identical despite sick neighbors")
	}
}

// TestBatchCancellation checks a cancelled context surfaces as per-leaf
// errors and leaves the dispatcher reusable.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br := SolveBatchCtx(ctx, []*Problem{benchProblem(24, 11)}, Options{MaxIters: 50}, nil, BatchOptions{})
	if br.Errs[0] == nil {
		t.Fatal("cancelled batch returned no error")
	}
	br = SolveBatch([]*Problem{benchProblem(24, 11)}, Options{MaxIters: 50, Tol: 2e-3}, nil, BatchOptions{})
	if br.Err() != nil {
		t.Fatalf("dispatcher not reusable after cancellation: %v", br.Err())
	}
}

// FuzzBatchBucketing fuzzes the dispatcher: arbitrary dimension mixes and
// worker counts must keep results index-aligned, the distinct-dimension
// count consistent, and every result bitwise-equal to a per-leaf solve.
func FuzzBatchBucketing(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(6), uint8(1))
	f.Add(int64(3), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, count, workers uint8) {
		nProbs := 1 + int(count%8)
		rng := rand.New(rand.NewSource(seed))
		probs := make([]*Problem, nProbs)
		dims := make(map[int]bool)
		for i := range probs {
			n := 3 + rng.Intn(30)
			dims[n] = true
			probs[i] = benchProblem(n, seed+int64(i))
		}
		opt := Options{MaxIters: 30, Tol: 2e-3}
		br := SolveBatch(probs, opt, nil, BatchOptions{Workers: int(workers % 8)})
		if got, want := len(br.Results), nProbs; got != want {
			t.Fatalf("results length %d, want %d", got, want)
		}
		if br.Stats.Buckets != len(dims) {
			t.Fatalf("buckets %d, want %d distinct dims", br.Stats.Buckets, len(dims))
		}
		if br.Stats.BatchedLeaves != nProbs {
			t.Fatalf("batched %d leaves, want %d", br.Stats.BatchedLeaves, nProbs)
		}
		for i, p := range probs {
			if br.Errs[i] != nil {
				t.Fatalf("leaf %d errored: %v", i, br.Errs[i])
			}
			res := br.Results[i]
			if res == nil || res.X.Rows != p.N {
				t.Fatalf("leaf %d: missing or mis-shaped result", i)
			}
			ref, err := NewWorkspace().Solve(p, opt, nil)
			if err != nil {
				t.Fatalf("leaf %d reference: %v", i, err)
			}
			if !bitsEqual(res.X, ref.X) {
				t.Fatalf("leaf %d: result not bitwise-equal to per-leaf", i)
			}
		}
	})
}
