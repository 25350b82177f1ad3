package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/partition"
	"repro/internal/sdp"
	"repro/internal/tree"
)

// solveRoundBatched is the round-level leaf dispatch for the ADMM-SDP
// engine. The round runs in three phases —
//
//  1. build + cache probe, parallel across leaves: the lifted relaxation is
//     constructed and the memo/revalidation tiers are consulted;
//  2. one LeafSolver.SolveBatch call (sdp.SolveBatchCtx by default) over
//     every leaf that needs a fresh solve: a few lanes take the pending
//     leaves largest first, so both cores stay busy to the end of the solve;
//  3. readout + post-mapping, parallel across leaves, with the OnSDP auditor
//     hook fired for each freshly solved relaxation.
//
// The committed layers are bit-identical to solving every pending leaf
// serially with Workspace.SolveCtx in input order: the batch solver is
// bitwise-equal to per-leaf solves at any worker count and input order, and
// phases 1 and 3 are per-leaf code whose outputs land in per-leaf slots.
func solveRoundBatched(ctx context.Context, in *buildInput, trees []*tree.Tree, leaves []*partition.Leaf, opt Options, cache *SolveCache) ([]proposal, sdp.BatchStats) {
	proposals := make([]proposal, len(leaves))
	sls := make([]*sdpLeaf, len(leaves))
	probes := make([]sdpProbe, len(leaves))

	// Phase 1: build the relaxations and probe the cache tiers in parallel.
	runLeafParallel(len(leaves), opt.Workers, func(li int) {
		leaf := leaves[li]
		proposals[li].leaf = leaf
		proposals[li].key = leafKey(leaf)
		items := make([]item, len(leaf.Items))
		for i, it := range leaf.Items {
			items[i] = item{treeIdx: it.Tree, segID: it.Seg}
		}
		sls[li] = buildSDPLeaf(buildProblem(in, trees, items))
		probes[li] = probeSDPCache(sls[li], opt, cache, proposals[li].key)
	})

	// Phase 2: one batched solve over the leaves the cache could not serve.
	var pend []int
	for li := range leaves {
		if probes[li].xFrac == nil {
			pend = append(pend, li)
		}
	}
	probs := make([]*sdp.Problem, len(pend))
	warms := make([]*sdp.State, len(pend))
	for i, li := range pend {
		probs[i] = sls[li].prob
		warms[i] = probes[li].warm
	}
	solver := opt.LeafSolver
	if solver == nil {
		solver = localLeafSolver{}
	}
	br := solver.SolveBatch(ctx, probs, leafSDPOptions(opt), warms, sdp.BatchOptions{Workers: opt.Workers})

	// Phase 3: readout and post-mapping in parallel. posOf maps a leaf index
	// to its slot in the batch result.
	posOf := make(map[int]int, len(pend))
	for i, li := range pend {
		posOf[li] = i
	}
	runLeafParallel(len(leaves), opt.Workers, func(li int) {
		sl := sls[li]
		var xFrac [][]float64
		if i, fresh := posOf[li]; fresh {
			if err := br.Errs[i]; err != nil {
				proposals[li].err = fmt.Errorf("core: partition SDP (%v) failed: %w", opt.SDPSolver, err)
				return
			}
			xFrac, proposals[li].stats = finishSDPLeaf(sl, br.Results[i], br.States[i], probes[li].cache, opt)
		} else {
			xFrac, proposals[li].stats = probes[li].xFrac, probes[li].ls
		}
		layers, err := mapLeaf(sl.p, xFrac, opt)
		proposals[li].layers, proposals[li].err = layers, err
	})
	return proposals, br.Stats
}

// leafSDPOptions is the ADMM configuration every partition leaf solves
// under. The relaxation's costs are normalized to at most 1 (costScale). On
// that scale μ₀ = 4–8 lets every leaf of the synthetic suite's adaptec1,
// bigblue1 and newblue1 converge inside the 150-iteration cap; from the sdp
// default μ₀ = 1 the adaptation spends so many checks raising μ that about
// one leaf in eight still reaches the cap, and μ₀ = 16 costs ~20% more
// iterations.
func leafSDPOptions(opt Options) sdp.Options {
	return sdp.Options{MaxIters: opt.SDPIters, Tol: opt.SDPTol, Mu: 8}
}

// runLeafParallel fans f out over [0, n) on up to workers goroutines: the
// batched round's build and readout phases, and the IPM/ILP leaf solves.
func runLeafParallel(n, workers int, f func(i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}

// mapLeaf rounds a leaf's fractional solution into per-item layer choices —
// the shared tail of the batched ADMM and the per-leaf IPM/ILP paths.
func mapLeaf(p *problem, xFrac [][]float64, opt Options) ([]int, error) {
	var choice []int
	switch opt.Mapping {
	case MappingGreedy:
		choice = argmaxMap(p, xFrac)
	case MappingFlow:
		choice = flowMap(p, xFrac)
	default:
		choice = postMap(p, xFrac)
	}
	layers := make([]int, len(p.segs))
	for i := range p.segs {
		li := choice[i]
		if li < 0 || li >= len(p.segs[i].layers) {
			return nil, fmt.Errorf("core: mapping produced invalid layer index %d", li)
		}
		layers[i] = p.segs[i].layers[li]
	}
	return layers, nil
}
