package main

import (
	"math"
	"sort"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"avg_tcp_ratio", "ratio"},
	{"ok_frac", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"route.s", "s"},
	{"tree.s", "s"},
	{"assign.s", "s"},
	{"timing.s", "s"},
	{"core.round.s", "s"},
	{"core.other.s", "s"},
	{"core.rounds", "count"},
	{"core.accepted_rounds", "count"},
	{"core.leaves", "count"},
	{"sdp.solve_batch.s", "s"},
	{"sdp.cpu_util", "ratio"},
	{"sdp.leaf_solves", "count"},
	{"sdp.admm_iters", "count"},
	{"sdp.capped_frac", "ratio"},
	{"sdp.buckets", "count"},
	{"sdp.psd_fastpath_frac", "ratio"},
	{"sdp.cpu_us_per_iter", "us"},
	{"lagrange.optimize.s", "s"},
	{"lagrange.rounds", "count"},
	{"incr.apply_capacity_p50_ms", "ms"},
	{"incr.apply_reroute_p50_ms", "ms"},
	{"incr.dirty_leaf_ratio", "ratio"},
	{"incr.memo_hit_frac", "ratio"},
	{"incr.reval_hit_frac", "ratio"},
	{"incr.replay_s", "s"},
	{"server.overhead_p50_ms", "ms"},
	{"cluster.append_p50_ms", "ms"},
	{"cluster.load_s", "s"},
	{"sta.topk_p50_us", "us"},
	{"sta.nodes_reprop", "count"},
	{"eco.script_s", "s"},
	{"eco.recovery_s", "s"},
	{"eco.delta_capacity_p50_ms", "ms"},
	{"eco.delta_reroute_p50_ms", "ms"},
	{"eco.paths_p50_ms", "ms"},
	{"eco.paths_p95_ms", "ms"},
	{"quality.max_tcp_ratio", "ratio"},
	{"quality.via_overflow", "count"},
	{"trace.flow_s", "s"},
	{"trace.attributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// zeroPerLayer sets every per-layer metric to 0, so a workload only fills
// in the layers it exercises.
func (r *report) zeroPerLayer() {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
