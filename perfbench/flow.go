package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/route"
	"repro/internal/timing"
	"repro/internal/tree"
	"repro/internal/verify"
)

// The paper's flow parameters and the ECO workload's path query.
const (
	releaseRatio  = 0.005
	pathsK        = 32
	pathsSiblings = 2
	// A flow's set-up is generating its design set, which takes
	// milliseconds: each setup_s sample times setupBatch generations, and
	// setup_s is the median of setupRepeats samples.
	setupRepeats = 5
	setupBatch   = 10
)

// flowSet is a flow workload's design set and optimizer.
type flowSet struct {
	designs, small []string
	lagrange       bool
}

var flowSets = map[string]flowSet{
	"flow_sdp":       {designs: []string{"adaptec1", "bigblue1", "newblue1"}, small: []string{"newblue1"}},
	"flow_sdp_1core": {designs: []string{"adaptec1", "bigblue1", "newblue1"}, small: []string{"newblue1"}},
	"flow_lagrange": {designs: []string{"bigblue4", "newblue5", "bigblue3", "adaptec1"},
		small: []string{"newblue4", "adaptec1"}, lagrange: true},
}

// subSeed is the generator seed of a run's pass-th set of inputs.
func subSeed(seed int64, pass int) int64 { return 1000*seed + int64(pass) }

// designParams returns the named suite shape with the given generator seed.
func designParams(name string, seed int64, small bool) (ispd08.GenParams, error) {
	get := ispd08.ByName
	if small {
		get = ispd08.SmallByName
	}
	p, err := get(name)
	p.Seed = seed
	return p, err
}

// designRun is one design's pass through the flow.
type designRun struct {
	name               string
	prepare, optimize  float64 // seconds
	before, after      timing.Metrics
	viaOverflow        int
	initDigest, digest uint64
	st                 *pipeline.State
	released           []int
	rounds             int
}

// flowTrace carries the traced run's probes; nil runs the flow untraced,
// with no hook or wrapper installed.
type flowTrace struct {
	tr     *tracer
	rounds *roundProbe
	sdp    *sdpProbe
}

func newFlowTrace() *flowTrace {
	tr := newTracer()
	return &flowTrace{tr: tr, rounds: &roundProbe{tr: tr}, sdp: newSDPProbe(tr)}
}

// runDesign generates one design (untimed) and runs prepare → select →
// optimize on it, timing prepare and optimize.
func runDesign(ctx context.Context, p ispd08.GenParams, lag bool, tp *flowTrace) (*designRun, error) {
	d, err := ispd08.Generate(p)
	if err != nil {
		return nil, err
	}
	r := &designRun{name: p.Name}
	t0 := time.Now()
	if tp == nil {
		r.st, err = pipeline.PrepareCtx(ctx, d, pipeline.DefaultOptions())
		if err != nil {
			return nil, err
		}
		r.released = timing.SelectCritical(r.st.Timings(), releaseRatio)
	} else if r.st, r.released, err = tp.prepare(ctx, d); err != nil {
		return nil, err
	}
	t1 := time.Now()
	r.prepare = t1.Sub(t0).Seconds()
	if tp != nil {
		r.initDigest = layerDigest(r.st.Trees)
	}

	var res *core.Result
	switch {
	case lag && tp == nil:
		res, err = lagrange.New(lagrange.Options{}).Optimize(ctx, r.st, r.released)
	case lag:
		tp.tr.do("lagrange.optimize", func() {
			res, err = lagrange.New(lagrange.Options{}).Optimize(ctx, r.st, r.released)
		})
	case tp == nil:
		res, err = core.OptimizeCtx(ctx, r.st, r.released, core.Options{})
	default:
		opt := core.Options{OnRound: tp.rounds.onRound, LeafSolver: tp.sdp}
		tp.tr.do("core.optimize", func() {
			tp.rounds.begin()
			res, err = core.OptimizeCtx(ctx, r.st, r.released, opt)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: optimize: %w", p.Name, err)
	}
	r.optimize = time.Since(t1).Seconds()
	r.before, r.after, r.rounds = res.Before, res.After, res.Rounds
	r.viaOverflow = r.st.Design.Grid.CollectOverflow().ViaExcess
	r.digest = layerDigest(r.st.Trees)
	return r, nil
}

// prepare is pipeline.PrepareCtx split into its four stage calls, each in
// its own span; the timing stage includes the critical-net selection.
func (tp *flowTrace) prepare(ctx context.Context, d *netlist.Design) (*pipeline.State, []int, error) {
	opt := pipeline.DefaultOptions()
	var (
		res   *route.Result
		trees []*tree.Tree
		err   error
	)
	tp.tr.do("route", func() { res, err = route.RouteAllCtx(ctx, d, opt.Route) })
	if err != nil {
		return nil, nil, err
	}
	tp.tr.do("tree", func() { trees, err = tree.BuildAll(res, d) })
	if err != nil {
		return nil, nil, err
	}
	tp.tr.do("assign", func() { assign.AssignAll(d.Grid, trees, opt.Assign) })
	st := &pipeline.State{Design: d, Routes: res, Trees: trees}
	var released []int
	tp.tr.do("timing", func() {
		st.Engine = timing.NewEngine(d.Stack, opt.Timing)
		released = timing.SelectCritical(st.Timings(), releaseRatio)
	})
	return st, released, nil
}

// layerDigest hashes every net's per-segment layers.
func layerDigest(trees []*tree.Tree) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	for _, t := range trees {
		if t == nil {
			put(-1)
			continue
		}
		put(len(t.Segs))
		for _, s := range t.Segs {
			put(s.Layer)
		}
	}
	return h.Sum64()
}

// checkDesign runs the flow's correctness checks on one optimized design.
func checkDesign(r *designRun, rep *report, out io.Writer) {
	if vr := verify.State(r.st, verify.Options{}); !vr.Clean() {
		rep.fail(out, "%s: verify: %s", r.name, vr.Summary())
	}
	if r.after.AvgTcp > r.before.AvgTcp {
		rep.fail(out, "%s: Avg(Tcp) got worse: %g -> %g", r.name, r.before.AvgTcp, r.after.AvgTcp)
	}
}

// runFlow runs a flow workload: passes over the design set until the
// measuring time is used, pass j on the designs of sub-seed j. Every pass
// is fully checked. The traced run is one untraced pass and one traced
// pass on the same designs, which must commit the same layers.
func runFlow(cfg runConfig) (*report, error) {
	ctx := context.Background()
	set := flowSets[cfg.workload]
	names := set.designs
	if cfg.small {
		names = set.small
	}
	designs := func(pass int) ([]ispd08.GenParams, error) {
		params := make([]ispd08.GenParams, len(names))
		for i, n := range names {
			p, err := designParams(n, subSeed(cfg.seed, pass), cfg.small)
			if err != nil {
				return nil, err
			}
			params[i] = p
		}
		return params, nil
	}
	rep := newReport()
	fmt.Fprintf(cfg.out, "gomaxprocs %d\n", runtime.GOMAXPROCS(0))

	params, err := designs(0)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		for j := 0; j < setupBatch; j++ {
			for _, p := range params {
				if _, err := ispd08.Generate(p); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, since(t)/setupBatch)
	}

	var tp *flowTrace
	if cfg.trace {
		rep.zeroPerLayer()
		tp = newFlowTrace()
	}

	var (
		walls, tracedWalls, avgRatio, maxRatio []float64
		first                                  []*designRun
	)
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		traced := tp != nil && pass == 1
		var probe *flowTrace
		if traced {
			probe = tp
		} else if params, err = designs(pass); err != nil {
			return nil, err
		}
		wall := 0.0
		var runs []*designRun
		for _, p := range params {
			var r *designRun
			var err error
			if probe != nil {
				probe.tr.do("flow.design", func() { r, err = runDesign(ctx, p, set.lagrange, probe) })
			} else {
				r, err = runDesign(ctx, p, set.lagrange, nil)
			}
			rep.Attempted++
			if err != nil {
				return nil, err
			}
			wall += r.prepare + r.optimize
			runs = append(runs, r)
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
		}
		for i, r := range runs {
			if traced {
				if r.digest != first[i].digest {
					rep.fail(cfg.out, "%s: the traced pass committed different layers", r.name)
				}
				checkPrepareSplit(ctx, params[i], r, rep, cfg.out)
				continue
			}
			avgRatio = append(avgRatio, ratio(r.after.AvgTcp, r.before.AvgTcp))
			maxRatio = append(maxRatio, ratio(r.after.MaxTcp, r.before.MaxTcp))
			checkDesign(r, rep, cfg.out)
			fmt.Fprintf(cfg.out, "digest %s pass %d %s %016x\n", cfg.workload, pass, r.name, r.digest)
			r.st = nil
		}
		if pass == 0 {
			first = runs
		}
		if tp != nil && pass == 1 || tp == nil && since(start)+since(passStart) > cfg.seconds {
			break
		}
	}

	rep.set("setup_s", median(setups))
	if !cfg.trace {
		rep.set("wall_s", median(walls))
		rep.set("avg_tcp_ratio", mean(avgRatio))
		rep.set("ok_frac", ratio(float64(rep.Attempted-rep.Failed), float64(rep.Attempted)))
		rep.set("max_rss_mb", maxRSSMB())
		return rep, rep.err()
	}

	// Traced: per-layer metrics from the traced passes only.
	total, self := tp.tr.reduce()
	for _, stage := range []string{"route", "tree", "assign", "timing"} {
		rep.set(stage+".s", self[stage])
	}
	tp.sdp.fill(rep)
	tp.rounds.fill(rep, tp.sdp.wall)
	rep.set("lagrange.optimize.s", total["lagrange.optimize"])
	via := 0
	for _, r := range first {
		via += r.viaOverflow
	}
	rep.set("quality.via_overflow", float64(via))
	rep.set("quality.max_tcp_ratio", mean(maxRatio))
	if set.lagrange {
		rounds := 0
		for _, r := range first {
			rounds += r.rounds
		}
		rep.set("lagrange.rounds", float64(rounds))
	}
	tracedWall := median(tracedWalls)
	attributed := self["route"] + self["tree"] + self["assign"] + self["timing"] +
		tp.rounds.wall + total["lagrange.optimize"]
	rep.set("trace.flow_s", tracedWall)
	rep.set("trace.attributed_pct", 100*ratio(attributed, tracedWall))
	rep.set("trace.overhead_pct", 100*ratio(tracedWall-walls[0], walls[0]))
	if err := tp.tr.write(cfg.tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "trace %s: flow_s %.3f untraced, %.3f traced, %.1f%% attributed to layer spans\n",
		cfg.workload, walls[0], tracedWall, 100*ratio(attributed, tracedWall))
	return rep, rep.err()
}

// checkPrepareSplit re-prepares the design through pipeline.PrepareCtx
// and requires the same initial layers the four traced stage calls gave.
func checkPrepareSplit(ctx context.Context, p ispd08.GenParams, r *designRun, rep *report, out io.Writer) {
	d, err := ispd08.Generate(p)
	if err != nil {
		rep.fail(out, "%s: regenerate: %v", p.Name, err)
		return
	}
	st, err := pipeline.PrepareCtx(ctx, d, pipeline.DefaultOptions())
	if err != nil {
		rep.fail(out, "%s: prepare: %v", p.Name, err)
		return
	}
	if got := layerDigest(st.Trees); got != r.initDigest {
		rep.fail(out, "%s: staged prepare drifted from pipeline.PrepareCtx (%016x vs %016x)", p.Name, r.initDigest, got)
	}
}
