package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sdp"
)

// span is one timed call into a layer. Times are seconds since the
// tracer's start; Parent is the index of the innermost enclosing span (-1
// for a root), assigned by containment when the trace is reduced.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory. All spans come from the benchmark's one
// closed-loop client, so they nest by containment.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, start, end float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// do runs f inside a span and returns its duration in seconds.
func (t *tracer) do(name string, f func()) float64 {
	start := t.now()
	f()
	end := t.now()
	t.add(name, start, end)
	return end - start
}

// reduce assigns parents by containment and returns per-name totals and
// self times (a span's duration minus the part its children cover).
func (t *tracer) reduce() (total, self map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	childTime := make([]float64, len(t.spans))
	var stack []int
	for i := range t.spans {
		s := &t.spans[i]
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			childTime[s.Parent] += s.End - s.Start
		}
		stack = append(stack, i)
	}
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		total[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - childTime[i]
	}
	return total, self
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sdpProbe wraps the in-process leaf solver (core.Options.LeafSolver) and
// records every batch: wall time, process CPU time and solver telemetry.
// Results pass through untouched, so the wrapped run commits the same bits.
type sdpProbe struct {
	tr    *tracer
	inner core.LeafSolver

	mu                             sync.Mutex
	wall, cpu                      float64
	leaves, iters, capped, buckets int
	fastPath, projections          int
}

func newSDPProbe(tr *tracer) *sdpProbe {
	return &sdpProbe{tr: tr, inner: core.LocalLeafSolver()}
}

func (p *sdpProbe) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult {
	start, c0 := p.tr.now(), cpuSeconds()
	br := p.inner.SolveBatch(ctx, probs, opt, warms, bopt)
	end, c1 := p.tr.now(), cpuSeconds()
	p.tr.add("sdp.solve_batch", start, end)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.wall += end - start
	p.cpu += c1 - c0
	p.buckets += br.Stats.Buckets
	for _, r := range br.Results {
		if r == nil {
			continue
		}
		p.leaves++
		p.iters += r.Iters
		if !r.Converged {
			p.capped++
		}
		p.fastPath += r.Stats.FastPath
		p.projections += r.Stats.Projections
	}
	return br
}

// fill reports the sdp metrics.
func (p *sdpProbe) fill(r *report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.set("sdp.solve_batch.s", p.wall)
	r.set("sdp.cpu_util", ratio(p.cpu, p.wall*float64(runtime.GOMAXPROCS(0))))
	r.set("sdp.leaf_solves", float64(p.leaves))
	r.set("sdp.admm_iters", float64(p.iters))
	r.set("sdp.capped_frac", ratio(float64(p.capped), float64(p.leaves)))
	r.set("sdp.buckets", float64(p.buckets))
	r.set("sdp.psd_fastpath_frac", ratio(float64(p.fastPath), float64(p.projections)))
	r.set("sdp.cpu_us_per_iter", 1e6*ratio(p.cpu, float64(p.iters)))
}

// roundProbe turns core.Options.OnRound callbacks into round spans: a
// round runs from the previous boundary (the optimize call's start, then
// the previous round's accept/revert) to its own callback.
type roundProbe struct {
	tr                       *tracer
	last                     float64
	wall                     float64
	rounds, accepted, leaves int
}

// begin marks the start of an optimize call.
func (p *roundProbe) begin() { p.last = p.tr.now() }

func (p *roundProbe) onRound(rs core.RoundStats) {
	now := p.tr.now()
	p.tr.add("core.round", p.last, now)
	p.wall += now - p.last
	p.last = now
	p.rounds++
	if rs.Accepted {
		p.accepted++
	}
	p.leaves += rs.Partitions
}

// fill reports the core metrics; sdpWall is the leaf-solve time inside
// the rounds.
func (p *roundProbe) fill(r *report, sdpWall float64) {
	r.set("core.round.s", p.wall)
	r.set("core.other.s", p.wall-sdpWall)
	r.set("core.rounds", float64(p.rounds))
	r.set("core.accepted_rounds", float64(p.accepted))
	r.set("core.leaves", float64(p.leaves))
}
