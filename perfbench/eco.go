package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/ispd08"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/sta"
	"repro/internal/verify"
)

const (
	// ecoSessions sessions, each on its own design, share one service in a
	// pass: one session's cost depends a lot on its design, so a pass
	// averages several, and the restart recovers them all at once.
	ecoSessions = 6
	// ecoQueriesPerBatch path queries follow every delta batch.
	ecoQueriesPerBatch = 10
	// pollEvery is how often the client polls a preparing session.
	pollEvery = 10 * time.Millisecond
)

// ecoKinds is the script's fixed shape: 7 capacity-class batches (the
// reuse path) and 5 resolve-class batches (one set_critical, then
// reroutes). set_critical comes first and pins the worst nets up to
// pinnedHops critical-path hops, so every later solve works on about the
// same amount of released wire whatever the seed.
var ecoKinds = []string{
	"set_critical", "adjust_capacity", "reroute", "adjust_capacity",
	"derate_pitch", "reroute", "adjust_capacity", "adjust_capacity",
	"reroute", "derate_pitch", "adjust_capacity", "reroute",
}

const (
	pinnedHops = 150
	// criticalK paths are asked for before the script; their nets are the
	// critical set that reroutes avoid and set_critical pins from.
	criticalK = 128
)

// scriptBatch is one delta batch of the script.
type scriptBatch struct {
	deltas []incr.Delta
	// resolve marks the resolve class (reroute, set_critical), which
	// re-solves most leaves; the others go through the reuse tiers.
	resolve bool
}

// makeScript draws the seeded delta script. critical lists the nets of the
// top paths the base session reported, worst first; reroutes pick long
// nets outside it and set_critical pins the pinned ones.
func makeScript(seed int64, d *netlist.Design, critical, pinned []int) []scriptBatch {
	rng := rand.New(rand.NewSource(seed))
	g := d.Grid
	skip := map[int]bool{}
	for _, ni := range critical {
		skip[ni] = true
	}
	var candidates []int
	for ni, n := range d.Nets {
		if skip[ni] || len(n.Pins) < 2 {
			continue
		}
		minX, minY, maxX, maxY := n.Pins[0].Pos.X, n.Pins[0].Pos.Y, n.Pins[0].Pos.X, n.Pins[0].Pos.Y
		for _, p := range n.Pins[1:] {
			minX, maxX = min(minX, p.Pos.X), max(maxX, p.Pos.X)
			minY, maxY = min(minY, p.Pos.Y), max(maxY, p.Pos.Y)
		}
		if (maxX-minX)+(maxY-minY) >= (g.W+g.H)/8 {
			candidates = append(candidates, ni)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })

	var script []scriptBatch
	for _, kind := range ecoKinds {
		var b scriptBatch
		switch kind {
		case "adjust_capacity":
			w, h := g.W/6+rng.Intn(g.W/8+1), g.H/6+rng.Intn(g.H/8+1)
			x, y := rng.Intn(g.W-w), rng.Intn(g.H-h)
			b.deltas = []incr.Delta{{AdjustCapacity: &incr.AdjustCapacitySpec{
				MinX: x, MinY: y, MaxX: x + w - 1, MaxY: y + h - 1, Factor: 0.6 + 0.3*rng.Float64(),
			}}}
		case "derate_pitch":
			b.deltas = []incr.Delta{{DeratePitch: &incr.DeratePitchSpec{
				Layer: 1 + rng.Intn(g.NumLayers()-1), Factor: 0.85 + 0.1*rng.Float64(),
			}}}
		case "reroute":
			b.resolve = true
			if len(candidates) > 0 {
				b.deltas = []incr.Delta{{Reroute: &incr.RerouteSpec{Net: candidates[0]}}}
				candidates = candidates[1:]
			}
		case "set_critical":
			b.resolve = true
			b.deltas = []incr.Delta{{SetCritical: &incr.SetCriticalSpec{Nets: pinned}}}
		}
		if len(b.deltas) > 0 {
			script = append(script, b)
		}
	}
	return script
}

// service is an in-process cplad: a durable server on a loopback port.
type service struct {
	srv   *server.Server
	hs    *http.Server
	store *cluster.Store
	base  string
	done  chan struct{}
}

// startService opens the session store in dir, builds the server, runs
// Recover when asked (before serving, as the server requires) and serves
// it on a loopback port.
func startService(dir string, recover bool) (*service, error) {
	store, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Store:  store,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.Start()
	if recover {
		if _, err := srv.Recover(); err != nil {
			store.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, store: store,
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the HTTP server, drains the job server and closes the store,
// waiting for every goroutine it started.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is the closed-loop HTTP client; every counted call is one
// attempted operation, and a transport error or non-2xx answer is a
// failed one.
type client struct {
	hc  *http.Client
	rep *report
}

func (c *client) do(method, url string, body any, counted bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if counted {
		c.rep.Attempted++
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if counted {
			c.rep.Failed++
		}
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if err != nil && counted {
		c.rep.Failed++
	}
	return data, err
}

// waitReady polls a session until it is ready.
func (c *client) waitReady(base, id string) (*server.SessionView, error) {
	deadline := time.Now().Add(150 * time.Second)
	for time.Now().Before(deadline) {
		data, err := c.do("GET", base+"/v1/sessions/"+id, nil, false)
		if err == nil {
			var v server.SessionView
			if err := json.Unmarshal(data, &v); err != nil {
				return nil, err
			}
			switch v.Status {
			case server.SessionReady:
				return &v, nil
			case server.SessionFailed:
				return nil, fmt.Errorf("session %s failed: %s", id, v.Error)
			}
		}
		time.Sleep(pollEvery)
	}
	return nil, fmt.Errorf("session %s not ready in time", id)
}

// create opens a session and waits until it is ready; it returns the
// session and the create → ready time.
func (c *client) create(base string, spec server.SessionSpec) (*server.SessionView, float64, error) {
	t := time.Now()
	data, err := c.do("POST", base+"/v1/sessions", spec, true)
	if err != nil {
		return nil, 0, err
	}
	var v server.SessionView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, 0, err
	}
	ready, err := c.waitReady(base, v.ID)
	return ready, since(t), err
}

func pathsURL(base, id string) string {
	return fmt.Sprintf("%s/v1/sessions/%s/paths?k=%d&siblings=%d", base, id, pathsK, pathsSiblings)
}

// ecoSession is what one session's script observed through HTTP.
type ecoSession struct {
	p      ispd08.GenParams
	id     string
	script []scriptBatch
	// Per batch: HTTP round trip, result (nil where refused) and the last
	// path answer of the burst that followed.
	deltaMS []float64
	results []*incr.DeltaResult
	paths   [][]byte
	last    *incr.DeltaResult
	// The answers after the restart.
	recoveredPaths []byte
	recoveredLast  *incr.DeltaResult
}

// ecoRun is one pass of the service side of the workload.
type ecoRun struct {
	setups                         []float64
	script, recovery               float64
	rerouteMS, capacityMS, pathsMS []float64
	sessions                       []*ecoSession
}

// ecoPass runs the service side of the workload: one session per design,
// each session's script with its query bursts, then a restart that
// recovers every session. tr, when non-nil, records a span per HTTP call.
func ecoPass(cfg runConfig, params []ispd08.GenParams, rep *report, tr *tracer) (*ecoRun, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", params[0].Seed))
	svc, err := startService(dir, false)
	if err != nil {
		return nil, err
	}
	running := svc
	defer func() {
		if running != nil {
			running.stop()
		}
	}()
	c := &client{hc: &http.Client{Timeout: 150 * time.Second}, rep: rep}
	span := func(name string, f func()) {
		if tr != nil {
			tr.do(name, f)
		} else {
			f()
		}
	}

	run := &ecoRun{}
	for _, p := range params {
		// The client's copy of the input, for drawing the script.
		d, err := ispd08.Generate(p)
		if err != nil {
			return nil, err
		}
		var v *server.SessionView
		var secs float64
		span("server.create", func() {
			v, secs, err = c.create(svc.base, server.SessionSpec{Gen: &p, Revalidate: true})
		})
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		run.setups = append(run.setups, secs)

		// The script reacts to what the service reported before it
		// started: the nets on the initial top paths are the critical ones.
		url := fmt.Sprintf("%s/v1/sessions/%s/paths?k=%d&siblings=%d", svc.base, v.ID, criticalK, pathsSiblings)
		data, err := c.do("GET", url, nil, true)
		if err != nil {
			return nil, err
		}
		var pr server.PathsResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			return nil, err
		}
		var critical, pinned []int
		seen, hops := map[int]bool{}, 0
		for _, path := range pr.Paths {
			if seen[path.Net] {
				continue
			}
			seen[path.Net] = true
			critical = append(critical, path.Net)
			if hops < pinnedHops {
				pinned = append(pinned, path.Net)
				hops += len(path.Hops)
			}
		}
		run.sessions = append(run.sessions, &ecoSession{p: p, id: v.ID, script: makeScript(p.Seed, d, critical, pinned)})
	}

	start := time.Now()
	for _, s := range run.sessions {
		for _, b := range s.script {
			t := time.Now()
			var body []byte
			span("server.delta", func() {
				body, err = c.do("POST", svc.base+"/v1/sessions/"+s.id+"/deltas", server.DeltaRequest{Deltas: b.deltas}, true)
			})
			ms := 1000 * since(t)
			s.deltaMS = append(s.deltaMS, ms)
			var res *incr.DeltaResult
			if err == nil {
				var dr server.DeltaResponse
				if err := json.Unmarshal(body, &dr); err != nil {
					return nil, err
				}
				res, s.last = dr.Result, dr.Result
				if b.resolve {
					run.rerouteMS = append(run.rerouteMS, ms)
				} else {
					run.capacityMS = append(run.capacityMS, ms)
				}
			}
			s.results = append(s.results, res)
			var lastPaths []byte
			for q := 0; q < ecoQueriesPerBatch; q++ {
				t := time.Now()
				var body []byte
				span("server.paths", func() { body, err = c.do("GET", pathsURL(svc.base, s.id), nil, true) })
				if err == nil {
					run.pathsMS = append(run.pathsMS, 1000*since(t))
					lastPaths = body
				}
			}
			s.paths = append(s.paths, lastPaths)
		}
		if s.last == nil {
			return nil, fmt.Errorf("session %s: every delta batch was refused", s.id)
		}
	}
	run.script = since(start)

	running = nil
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	t := time.Now()
	span("server.recover", func() {
		c.rep.Attempted++
		if svc, err = startService(dir, true); err != nil {
			c.rep.Failed++
			return
		}
		running = svc
		for _, s := range run.sessions {
			var v *server.SessionView
			if v, err = c.waitReady(svc.base, s.id); err != nil {
				return
			}
			s.recoveredLast = v.Last
		}
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	run.recovery = since(t)
	for _, s := range run.sessions {
		if s.recoveredPaths, err = c.do("GET", pathsURL(svc.base, s.id), nil, true); err != nil {
			return nil, err
		}
	}
	running = nil
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	return run, nil
}

// tcpRatios are the mean over every delta batch of the pass of the
// released set's Avg(Tcp) and Max(Tcp) after the solve over before it.
func (run *ecoRun) tcpRatios() (avg, max float64) {
	var a, m []float64
	for _, s := range run.sessions {
		for _, r := range s.results {
			if r != nil {
				a = append(a, ratio(r.After.AvgTcp, r.Before.AvgTcp))
				m = append(m, ratio(r.After.MaxTcp, r.Before.MaxTcp))
			}
		}
	}
	return mean(a), mean(m)
}

// checkRecovery requires every recovered session to answer exactly as it
// did before the restart.
func checkRecovery(run *ecoRun, rep *report, out io.Writer) {
	for _, s := range run.sessions {
		if !bytes.Equal(s.paths[len(s.paths)-1], s.recoveredPaths) {
			rep.fail(out, "eco %s: path answer after recovery differs from the answer before the restart", s.p.Name)
		}
		if s.recoveredLast == nil || s.recoveredLast.After != s.last.After {
			rep.fail(out, "eco %s: recovered session's After metrics differ from the last delta's", s.p.Name)
		}
	}
}

// runECO runs the ECO workload: passes until the measuring time is used,
// pass j on the next ecoSessions sub-seeds' designs (2 with -small), each
// pass against a fresh service.
func runECO(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups, walls, avgRatio []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		sessions := ecoSessions
		if cfg.small {
			sessions = 2
		}
		params := make([]ispd08.GenParams, sessions)
		for i := range params {
			p, err := designParams("newblue1", subSeed(cfg.seed, pass*sessions+i), cfg.small)
			if err != nil {
				return nil, err
			}
			params[i] = p
		}
		if cfg.trace {
			return runECOTraced(cfg, params, rep)
		}
		run, err := ecoPass(cfg, params, rep, nil)
		if err != nil {
			return nil, err
		}
		checkRecovery(run, rep, cfg.out)
		setups = append(setups, run.setups...)
		walls = append(walls, run.script+run.recovery)
		avg, _ := run.tcpRatios()
		avgRatio = append(avgRatio, avg)
		fmt.Fprintf(cfg.out, "eco pass %d: %d sessions, script %.2fs, recovery %.2fs\n",
			pass, len(run.sessions), run.script, run.recovery)
		if since(start)+since(passStart) > cfg.seconds {
			break
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", median(walls))
	rep.set("avg_tcp_ratio", mean(avgRatio))
	rep.set("ok_frac", ratio(float64(rep.Attempted-rep.Failed), float64(rep.Attempted)))
	rep.set("max_rss_mb", maxRSSMB())
	return rep, rep.err()
}

// directSessions of a traced pass are also driven directly; two keep the
// traced run well inside its time limit.
const directSessions = 2

// runECOTraced runs the service pass with client spans, then drives the
// first directSessions sessions' scripts directly through incr.Session
// (with the sdp and round probes installed), a scratch session store and
// incr.ReplayBatches, and checks that every layer agrees with the service.
func runECOTraced(cfg runConfig, params []ispd08.GenParams, rep *report) (*report, error) {
	ctx := context.Background()
	rep.zeroPerLayer()
	tp := newFlowTrace()
	tr := tp.tr

	// Prepare split: the four stage calls on the first session's design.
	pd, err := ispd08.Generate(params[0])
	if err != nil {
		return nil, err
	}
	st, _, err := tp.prepare(ctx, pd)
	if err != nil {
		return nil, err
	}
	checkPrepareSplit(ctx, params[0], &designRun{initDigest: layerDigest(st.Trees)}, rep, cfg.out)
	_, self := tr.reduce()
	for _, stage := range []string{"route", "tree", "assign", "timing"} {
		rep.set(stage+".s", self[stage])
	}

	run, err := ecoPass(cfg, params, rep, tr)
	if err != nil {
		return nil, err
	}
	checkRecovery(run, rep, cfg.out)

	store, err := cluster.Open(filepath.Join(cfg.workDir, "scratch-store"), cluster.StoreOptions{})
	if err != nil {
		return nil, err
	}
	defer func() { store.Close() }()
	var (
		capMS, rerouteMS, overheadMS, topkUS, dirty, appendMS []float64
		leafSolves, memo, reval, reprop                       int
		replayS                                               float64
	)
	qopt := sta.QueryOptions{MaxSiblings: pathsSiblings}
	direct := run.sessions[:min(directSessions, len(run.sessions))]
	for si, s := range direct {
		// The same script, directly.
		gen := func() (*netlist.Design, error) { return ispd08.Generate(s.p) }
		icfg := incr.Config{
			Prepare:    pipeline.DefaultOptions(),
			Core:       core.Options{OnRound: tp.rounds.onRound, LeafSolver: tp.sdp},
			Revalidate: true,
		}
		var sess *incr.Session
		tp.rounds.begin()
		tr.do("incr.new", func() { sess, err = incr.New(ctx, gen, icfg) })
		if err != nil {
			return nil, err
		}
		sid := fmt.Sprintf("perfbench-%d", si)
		if err := store.Create(sid, &server.SessionSpec{Gen: &s.p, Revalidate: true}); err != nil {
			return nil, err
		}
		var batches [][]incr.Delta
		for i, b := range s.script {
			h0 := len(sess.History())
			var res *incr.DeltaResult
			tp.rounds.begin()
			secs := tr.do("incr.apply", func() { res, err = sess.Apply(ctx, b.deltas) })
			rep.Attempted++
			if err != nil {
				rep.Failed++
				continue
			}
			batch := append([]incr.Delta(nil), sess.History()[h0:]...)
			batches = append(batches, batch)
			var aerr error
			appendMS = append(appendMS, 1000*tr.do("cluster.append", func() { aerr = store.AppendBatch(sid, batch) }))
			if aerr != nil {
				return nil, aerr
			}
			if b.resolve {
				rerouteMS = append(rerouteMS, 1000*secs)
			} else {
				capMS = append(capMS, 1000*secs)
			}
			dirty = append(dirty, res.DirtyLeafRatio)
			leafSolves += res.LeafSolves
			memo += res.MemoHits
			reval += res.RevalHits
			reprop += res.StaNodesReprop

			var paths []sta.Path
			for q := 0; q < ecoQueriesPerBatch; q++ {
				topkUS = append(topkUS, 1e6*tr.do("sta.topk", func() { paths, _ = sess.Paths(pathsK, qopt) }))
			}

			// Checks, outside every timed call.
			if vr := verify.State(sess.State(), verify.Options{}); !vr.Clean() {
				rep.fail(cfg.out, "eco %s batch %d: verify: %s", s.p.Name, i, vr.Summary())
			}
			sst := sess.State()
			want := verify.TopKPaths(sst.Design.Stack, sst.Engine.Params.SinkCap, sst.Trees, sess.Required(), pathsK, pathsSiblings)
			if !sta.PathsEqual(paths, want) {
				rep.fail(cfg.out, "eco %s batch %d: Session.Paths differs from the naive enumerator", s.p.Name, i)
			}
			if hr := s.results[i]; hr == nil || hr.After != res.After || hr.Before != res.Before {
				rep.fail(cfg.out, "eco %s batch %d: HTTP delta answer differs from the direct Apply", s.p.Name, i)
			} else if !b.resolve {
				overheadMS = append(overheadMS, s.deltaMS[i]-1000*secs)
			}
			var hp server.PathsResponse
			if err := json.Unmarshal(s.paths[i], &hp); err != nil || !sta.PathsEqual(hp.Paths, paths) {
				rep.fail(cfg.out, "eco %s batch %d: HTTP paths answer differs from Session.Paths", s.p.Name, i)
			}
		}

		rcfg := icfg
		rcfg.Core = core.Options{}
		var replayed *incr.Session
		replayS += tr.do("incr.replay", func() { replayed, err = incr.ReplayBatches(ctx, gen, rcfg, batches) })
		if err != nil {
			return nil, err
		}
		if replayed.Last().After != sess.Last().After {
			rep.fail(cfg.out, "eco %s: replayed session's After metrics differ from the live session's", s.p.Name)
		}
	}

	// Load the scratch store back, as a restart would.
	if err := store.Close(); err != nil {
		return nil, err
	}
	if store, err = cluster.Open(filepath.Join(cfg.workDir, "scratch-store"), cluster.StoreOptions{}); err != nil {
		return nil, err
	}
	var states []cluster.SessionState
	loadS := tr.do("cluster.load", func() { states, err = store.Recover() })
	if err != nil {
		return nil, err
	}
	if len(states) != len(direct) {
		rep.fail(cfg.out, "eco: store recovered %d sessions, want %d", len(states), len(direct))
	}

	tp.sdp.fill(rep)
	tp.rounds.fill(rep, tp.sdp.wall)
	avg, maxRatio := run.tcpRatios()
	rep.set("avg_tcp_ratio", avg)
	rep.set("quality.max_tcp_ratio", maxRatio)
	via := 0
	for _, s := range run.sessions {
		via += s.last.Overflow.ViaExcess
	}
	rep.set("quality.via_overflow", float64(via))
	rep.set("eco.script_s", run.script)
	rep.set("eco.recovery_s", run.recovery)
	rep.set("eco.delta_capacity_p50_ms", median(run.capacityMS))
	rep.set("eco.delta_reroute_p50_ms", median(run.rerouteMS))
	rep.set("eco.paths_p50_ms", quantile(run.pathsMS, 0.5))
	rep.set("eco.paths_p95_ms", quantile(run.pathsMS, 0.95))
	rep.set("incr.apply_capacity_p50_ms", median(capMS))
	rep.set("incr.apply_reroute_p50_ms", median(rerouteMS))
	rep.set("incr.dirty_leaf_ratio", mean(dirty))
	rep.set("incr.memo_hit_frac", ratio(float64(memo), float64(leafSolves)))
	rep.set("incr.reval_hit_frac", ratio(float64(reval), float64(leafSolves)))
	rep.set("incr.replay_s", replayS)
	rep.set("server.overhead_p50_ms", median(overheadMS))
	rep.set("cluster.append_p50_ms", median(appendMS))
	rep.set("cluster.load_s", loadS)
	rep.set("sta.topk_p50_us", median(topkUS))
	rep.set("sta.nodes_reprop", float64(reprop))
	if err := tr.write(cfg.tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "trace eco_service: %d sessions, script %.2fs, recovery %.2fs\n",
		len(run.sessions), run.script, run.recovery)
	return rep, rep.err()
}
