package sdp

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// This file implements batched leaf solving: a round's independent
// per-partition SDPs go through one work-stealing dispatcher. The pending
// leaves are ordered largest dimension first, a few lanes (one per core the
// kernel pool can offer) each take the next leaf off a shared atomic
// counter, and every lane solves in a pooled slab workspace: the five dense
// ADMM iterates of a lane — C, X, S, V, scratch — are adjacent arrays in
// one allocation, likewise the five constraint vectors. Largest-first keeps
// both cores busy to the end of the round: the big leaves start early, and
// the tail is made of small leaves that finish together. When a lane
// drains, its pool slot frees, so the dense kernels of the last big leaf
// still running can borrow that core.
//
// Bitwise contract: the batched path produces results bit-identical to
// per-leaf Workspace solves at any worker count and in any input order.
// This holds by construction — each leaf still runs the exact SolveCtx
// iteration, whose output depends only on (problem, options, warm state),
// never on workspace buffer history (every buffer is fully overwritten
// before use); the dispatcher only decides WHICH lane's slab a leaf's
// arithmetic runs in.

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Workers caps the lanes; 0 means one lane per helper the kernel pool
	// can offer (GOMAXPROCS). The cap changes scheduling only, never
	// results.
	Workers int
}

// BatchStats aggregates what the batch dispatcher did; per-leaf solver
// telemetry stays in each Result.Stats.
type BatchStats struct {
	// Buckets is the number of distinct matrix dimensions solved.
	Buckets int
	// BatchedLeaves is the number of problems the dispatcher solved.
	BatchedLeaves int
}

// BatchResult holds per-problem outcomes, index-aligned with the input.
type BatchResult struct {
	Results []*Result
	// States are the per-leaf warm-state snapshots (nil where the solve
	// errored), for the caller's warm-start cache.
	States []*State
	Errs   []error
	Stats  BatchStats
}

// Err returns the first non-nil per-leaf error, if any.
func (br *BatchResult) Err() error {
	for _, err := range br.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchLane is one lane's slab-backed workspace. The five dense matrices
// live adjacently in one slab allocation, the five constraint vectors in
// another; both only grow, so a lane that starts on the largest leaf never
// allocates them again.
type batchLane struct {
	slab  []float64
	vslab []float64
	ws    Workspace
}

var lanePool = sync.Pool{New: func() any { return new(batchLane) }}

// bind points the lane workspace at slab views for an n-dimensional leaf
// with m constraints, after which SolveCtx's ensure() is a no-op.
func (l *batchLane) bind(n, m int) {
	nn := n * n
	if cap(l.slab) < 5*nn {
		l.slab = make([]float64, 5*nn)
	}
	s := l.slab[:5*nn]
	mat := func(k int) *linalg.Matrix {
		return &linalg.Matrix{Rows: n, Cols: n, Data: s[k*nn : (k+1)*nn : (k+1)*nn]}
	}
	l.ws.n = n
	l.ws.cDense, l.ws.x, l.ws.s, l.ws.v, l.ws.scratch = mat(0), mat(1), mat(2), mat(3), mat(4)
	if cap(l.vslab) < 5*m {
		l.vslab = make([]float64, 5*m)
	}
	v := l.vslab[:5*m]
	vec := func(k int) []float64 { return v[k*m : (k+1)*m : (k+1)*m] }
	l.ws.m = m
	l.ws.b, l.ws.y, l.ws.ax, l.ws.rhs, l.ws.solveWork = vec(0), vec(1), vec(2), vec(3), vec(4)
}

// SolveBatch solves a set of independent problems through the largest-first
// dispatcher. See SolveBatchCtx.
func SolveBatch(probs []*Problem, opt Options, warms []*State, bopt BatchOptions) *BatchResult {
	return SolveBatchCtx(context.Background(), probs, opt, warms, bopt)
}

// SolveBatchCtx solves probs on min(bopt.Workers, linalg.KernelParallelism(),
// len(probs)) lanes that take leaves largest dimension first (ties in input
// order) from a shared counter. The lanes start through
// linalg.ParallelRange, so they hold the kernel pool's helper slots and no
// core is oversubscribed. warms may be nil, or index-aligned with probs (nil
// entries mean cold starts). Results, states and errors come back
// index-aligned, and each is bitwise identical to a per-leaf
// Workspace.SolveCtx call.
func SolveBatchCtx(ctx context.Context, probs []*Problem, opt Options, warms []*State, bopt BatchOptions) *BatchResult {
	br := &BatchResult{
		Results: make([]*Result, len(probs)),
		States:  make([]*State, len(probs)),
		Errs:    make([]error, len(probs)),
	}
	if warms != nil && len(warms) != len(probs) {
		panic("sdp: SolveBatch warms length mismatch")
	}

	order := make([]int, 0, len(probs))
	dims := make(map[int]bool)
	for i, p := range probs {
		if p == nil {
			br.Errs[i] = errors.New("sdp: nil problem in batch")
			continue
		}
		if p.N <= 0 {
			br.Errs[i] = errors.New("sdp: empty problem")
			continue
		}
		order = append(order, i)
		dims[p.N] = true
	}
	br.Stats.Buckets = len(dims)
	br.Stats.BatchedLeaves = len(order)
	if len(order) == 0 {
		return br
	}
	sort.SliceStable(order, func(a, b int) bool { return probs[order[a]].N > probs[order[b]].N })

	lanes := linalg.KernelParallelism()
	if bopt.Workers > 0 && bopt.Workers < lanes {
		lanes = bopt.Workers
	}
	if lanes > len(order) {
		lanes = len(order)
	}
	var next atomic.Int64
	linalg.ParallelRange(lanes, 1, func(lo, hi int) {
		lane := lanePool.Get().(*batchLane)
		defer lanePool.Put(lane)
		for {
			k := int(next.Add(1) - 1)
			if k >= len(order) {
				return
			}
			i := order[k]
			p := probs[i]
			var warm *State
			if warms != nil {
				warm = warms[i]
			}
			lane.bind(p.N, len(p.Constraints))
			res, err := lane.ws.SolveCtx(ctx, p, opt, warm)
			if err != nil {
				br.Errs[i] = err
				continue
			}
			br.Results[i] = res
			br.States[i] = lane.ws.State()
		}
	})
	return br
}
