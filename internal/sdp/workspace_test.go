package sdp

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWorkspaceReuseBitIdentical is the refactor's core guarantee: a
// workspace reused across solves — including solves of differently-sized
// problems in between — produces bit-for-bit the same result as a fresh
// Solve, because buffer reuse only changes where intermediates live, never
// the operation order.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	problems := []*Problem{
		benchProblem(12, 3),
		benchProblem(31, 4),
		benchProblem(12, 5),
		benchProblem(31, 4), // repeat: same problem after interleaving
	}
	opt := Options{MaxIters: 200, Tol: 1e-3}
	w := NewWorkspace()
	for pi, p := range problems {
		fresh, err := Solve(p, opt)
		if err != nil {
			t.Fatalf("problem %d fresh: %v", pi, err)
		}
		reused, err := w.Solve(p, opt, nil)
		if err != nil {
			t.Fatalf("problem %d reused: %v", pi, err)
		}
		if fresh.Iters != reused.Iters || fresh.Converged != reused.Converged {
			t.Fatalf("problem %d: iters/converged %d/%v vs %d/%v",
				pi, fresh.Iters, fresh.Converged, reused.Iters, reused.Converged)
		}
		if fresh.Objective != reused.Objective ||
			fresh.PrimalRes != reused.PrimalRes || fresh.DualRes != reused.DualRes {
			t.Fatalf("problem %d: scalar results differ", pi)
		}
		for i, v := range fresh.X.Data {
			if reused.X.Data[i] != v {
				t.Fatalf("problem %d: X[%d] = %g vs %g", pi, i, reused.X.Data[i], v)
			}
		}
	}
}

// TestFactorReuseBitIdentical checks the safe warm tier: donating only the
// Gram Cholesky factor (structure unchanged) cannot change any result bit —
// the factor is a pure function of the constraint structure.
func TestFactorReuseBitIdentical(t *testing.T) {
	p := benchProblem(24, 6)
	opt := Options{MaxIters: 200, Tol: 1e-3}
	w := NewWorkspace()
	if _, err := w.Solve(p, opt, nil); err != nil {
		t.Fatal(err)
	}
	factor := w.State().FactorOnly()
	if factor.X != nil {
		t.Fatal("FactorOnly leaked iterates")
	}

	// Same structure, shifted costs and RHS — the factor must be reused
	// (value-identical) and the result must equal a fresh cold solve.
	p2 := benchProblem(24, 7)
	fresh, err := Solve(p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := w.Solve(p2, opt, factor)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Warm {
		t.Fatal("factor-only solve reported iterate seeding")
	}
	if warm.Iters != fresh.Iters || warm.Objective != fresh.Objective {
		t.Fatalf("factor reuse changed the solve: %d/%g vs %d/%g",
			warm.Iters, warm.Objective, fresh.Iters, fresh.Objective)
	}
	for i, v := range fresh.X.Data {
		if warm.X.Data[i] != v {
			t.Fatalf("X[%d] = %g vs %g", i, warm.X.Data[i], v)
		}
	}
}

// TestWarmStartConverges checks X seeding through a State that carries an
// iterate: seeding from a converged state of the same problem re-converges (to the same objective within
// tolerance) and reports Warm.
func TestWarmStartConverges(t *testing.T) {
	opt := Options{MaxIters: 5000, Tol: 2e-3}
	w := NewWorkspace()
	var p *Problem
	var cold *Result
	for seed := int64(8); seed < 24; seed++ {
		p = benchProblem(16, seed)
		var err error
		cold, err = w.Solve(p, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Converged {
			break
		}
	}
	if !cold.Converged {
		t.Skip("no cold solve converged; warm property unchecked")
	}
	warm, err := w.Solve(p, opt, w.State())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("warm solve not reported as seeded")
	}
	if !warm.Converged {
		t.Fatal("warm solve did not converge")
	}
	if diff := warm.Objective - cold.Objective; diff > 1e-2 || diff < -1e-2 {
		t.Fatalf("warm objective drifted: %g vs %g", warm.Objective, cold.Objective)
	}
}

// TestProblemSignature pins the memoization key's sensitivity: any change
// to dimension, costs, constraint entries or RHS must change the signature.
func TestProblemSignature(t *testing.T) {
	base := benchProblem(10, 9)
	sig := ProblemSignature(base)
	if sig != ProblemSignature(benchProblem(10, 9)) {
		t.Fatal("identical problems hash differently")
	}
	perturb := []func(*Problem){
		func(p *Problem) { p.N++ },
		func(p *Problem) { p.C.Entries[0].Val += 1e-12 },
		func(p *Problem) { p.Constraints[0].RHS += 1e-12 },
		func(p *Problem) { p.Constraints[1].A.Entries[0].I++ },
		func(p *Problem) { p.Constraints = p.Constraints[:len(p.Constraints)-1] },
	}
	for i, f := range perturb {
		q := benchProblem(10, 9)
		f(q)
		if ProblemSignature(q) == sig {
			t.Errorf("perturbation %d did not change the signature", i)
		}
	}
}

// TestPenaltyRisesOnDualPlateau pins the direction of the penalty update on
// a real plateau-class CPLA partition leaf (testdata/plateau_leaf.json, a
// round-1 leaf of a 200-net 18x18 design). With the update the wrong way
// round this leaf ran into the cap with the primal residual near 2e-7 and
// the dual residual stuck near 3e-3: every check saw dual > 10·primal and
// shrank μ, which only made the dual step smaller. Here μ must rise from
// the default μ₀ = 1 and the solve must converge within the optimizer's
// 150-iteration cap, from μ₀ = 1 and from the optimizer's μ₀ = 8 alike.
func TestPenaltyRisesOnDualPlateau(t *testing.T) {
	raw, err := os.ReadFile("testdata/plateau_leaf.json")
	if err != nil {
		t.Fatal(err)
	}
	var p Problem
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	for _, mu0 := range []float64{1, 8} {
		res, err := Solve(&p, Options{MaxIters: 150, Tol: 2e-3, Mu: mu0})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("μ₀=%g: capped at %d iterations (primal %.2e, dual %.2e, μ %.3g)",
				mu0, res.Iters, res.PrimalRes, res.DualRes, res.Mu)
		}
		if mu0 == 1 && res.Mu <= mu0 {
			t.Errorf("μ₀=1: penalty ended at %.3g; a dual plateau must raise it", res.Mu)
		}
	}
}
