package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/serve"
	"heaptherapy/internal/workload"
)

// Both serve workloads run 2 closed-loop clients against a 2-worker
// server (the host has 2 CPUs), calling Handler().ServeHTTP in process
// so no socket or net/http transport cost is measured.
const (
	serveClients = 2
	serveWorkers = 2
)

// serveFixture is the program side of a serve workload's set-up.
type serveFixture struct {
	svc     *workload.Service
	p       *prog.Program
	coder   *encoding.Coder
	patches *patch.Set // nil: the server starts unpatched
	planDur time.Duration
	codeDur time.Duration
}

// newServeFixture builds the vulnerable nginx program and its coder,
// and with prepatch the patches analysis derives from CrashRequest.
func newServeFixture(prepatch bool) (*serveFixture, error) {
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{svc: svc, p: p}
	if fx.coder, fx.planDur, fx.codeDur, err = timedCoder(p); err != nil {
		return nil, err
	}
	if prepatch {
		rep, err := (&analysis.Analyzer{Coder: fx.coder}).Analyze(p, svc.CrashRequest())
		if err != nil {
			return nil, err
		}
		if rep.Patches.Len() == 0 {
			return nil, fmt.Errorf("analysis of CrashRequest produced no patches")
		}
		fx.patches = rep.Patches
	}
	return fx, nil
}

// server builds a server with every knob but the worker count at its
// default; analyze, when non-nil, is the Config.Analyze seam.
func (fx *serveFixture) server(analyze func(*prog.Program, []byte) (*patch.Set, error)) (*serve.Server, error) {
	return serve.New(serve.Config{
		Program:      fx.p,
		Coder:        fx.coder,
		BenignSample: fx.svc.BenignRequest(),
		Workers:      serveWorkers,
		Patches:      fx.patches,
		Analyze:      analyze,
	})
}

// timedAnalyze is serve's default re-analysis (same analyzer, same
// no-patches error) with its duration and warning count recorded.
type timedAnalyze struct {
	coder    *encoding.Coder
	mu       sync.Mutex
	ms       []float64
	warnings []float64
}

func (t *timedAnalyze) analyze(p *prog.Program, attack []byte) (*patch.Set, error) {
	t0 := time.Now()
	rep, err := (&analysis.Analyzer{Coder: t.coder}).Analyze(p, attack)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.ms = append(t.ms, ms(d))
	t.warnings = append(t.warnings, float64(len(rep.Warnings)))
	t.mu.Unlock()
	if rep.Patches.Len() == 0 {
		return nil, fmt.Errorf("re-analysis produced no patches (warnings: %d)", len(rep.Warnings))
	}
	return rep.Patches, nil
}

// reply is what a client observed for one request.
type reply struct {
	code    int
	outcome string
	epoch   uint64
	body    []byte
	d       time.Duration
}

// client is one closed-loop caller of the handler. It reuses its
// request and response writer, so the Go allocations and GC cycles a
// run measures are the server's rather than the load generator's.
type client struct {
	h    http.Handler
	req  *http.Request
	body bytes.Reader
	w    replyWriter
}

func newClient(h http.Handler) *client {
	c := &client{h: h, w: replyWriter{hdr: http.Header{}}}
	c.req = httptest.NewRequest(http.MethodPost, "/request", nil)
	c.req.Body = io.NopCloser(&c.body)
	return c
}

// call issues one POST /request and times the ServeHTTP call alone.
// The reply's body is valid until the next call.
func (c *client) call(body []byte) reply {
	c.body.Reset(body)
	c.w.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, c.req)
	d := time.Since(t0)
	epoch, _ := strconv.ParseUint(c.w.hdr.Get("X-HTP-Epoch"), 10, 64)
	return reply{code: c.w.status(), outcome: c.w.hdr.Get("X-HTP-Outcome"), epoch: epoch, body: c.w.buf.Bytes(), d: d}
}

// replyWriter is a reusable http.ResponseWriter: status, headers and
// body of the last reply.
type replyWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *replyWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

func (w *replyWriter) Header() http.Header { return w.hdr }

func (w *replyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *replyWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

func (w *replyWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// benignLen draws a benign reply length in [1, BufSize].
func benignLen(r interface{ Intn(int) int }, svc *workload.Service) uint64 {
	return 1 + uint64(r.Intn(int(svc.BufSize)))
}

// checkBenign is "" when r is a 200/ok reply of exactly n reply bytes
// (the vulnerable handler memsets its reply buffer to '.').
func checkBenign(r reply, n uint64) string {
	if r.code != http.StatusOK || r.outcome != serve.OutcomeOK {
		return fmt.Sprintf("benign request: HTTP %d outcome %q", r.code, r.outcome)
	}
	if uint64(len(r.body)) != n || bytes.Count(r.body, []byte{'.'}) != len(r.body) {
		return fmt.Sprintf("benign request of %d bytes: wrong reply (%d bytes)", n, len(r.body))
	}
	return ""
}

// setServeStats stores the front-end counters as per-layer metrics.
func setServeStats(m *meter, s serve.Stats) {
	m.set("serve.rejected", float64(s.Rejected+s.QuotaRejected))
	m.set("serve.contained", float64(s.Contained))
	m.set("serve.wild", float64(s.Wild))
	m.set("serve.rollouts", float64(s.Rollouts))
	m.set("serve.rollout_fails", float64(s.RolloutFails))
	m.set("serve.bundle_drops", float64(s.BundleDrops))
}

func runServeBenign(o options, m *meter) error {
	var fx *serveFixture
	var srv *serve.Server
	setup, err := o.setups(func() (err error) {
		if fx, err = newServeFixture(true); err != nil {
			return err
		}
		srv, err = fx.server(nil)
		return err
	}, func() { srv.Drain() })
	if err != nil {
		return err
	}
	m.set("setup_s", setup)
	h := srv.Handler()

	// Warm-up: worker executors, pooled contexts, Go heap.
	warm := 400
	if o.small {
		warm = 10
	}
	benignLoad(h, fx.svc, o.seed, -1, warm, 0, m)

	dur := o.duration()
	if o.trace {
		dur /= 2
	}
	gs := startGoStats()
	before := srv.Fleet().Stats()
	lat, elapsed := benignLoad(h, fx.svc, o.seed, 0, 0, dur, m)
	after := srv.Fleet().Stats()
	gs.record(m, int64(len(lat)))
	inputs := benignInputs(fx.svc, o.seed, replayRequests(o))
	if o.trace {
		// serve.handle_us: the replayed inputs sent one at a time by one
		// client, so serve.self_us compares like with like.
		cl := newClient(h)
		var handle []float64
		for _, in := range inputs {
			r := cl.call(in)
			handle = append(handle, us(r.d))
			m.op(checkBenign(r, workloadLen(in)))
		}
		m.set("serve.handle_us", median(handle))
	}
	srv.Drain()

	setLatency(m, lat, elapsed)
	heapOps := (after.Defense.Allocs + after.Defense.Frees) - (before.Defense.Allocs + before.Defense.Frees)
	m.set("heap_ops_per_s", float64(heapOps)/elapsed.Seconds())
	setServeStats(m, srv.Stats())
	st := srv.Fleet().Stats()
	m.set("fleet.contexts_built", float64(st.ContextsBuilt))
	m.set("fleet.resets", float64(st.Resets))
	m.detail["defense_per_request"] = defenseCounts(m, []fleet.Stats{st})
	if !o.trace {
		return nil
	}

	m.set("encoding.plan_ms", ms(fx.planDur))
	m.set("encoding.coder_ms", ms(fx.codeDur))
	want := func(i int, res *prog.Result) string {
		if res.Crashed() || !bytes.Equal(res.Output, bytes.Repeat([]byte{'.'}, int(workloadLen(inputs[i])))) {
			return fmt.Sprintf("replayed benign request %d: wrong result", i)
		}
		return ""
	}
	job := replayJob{p: fx.p, coder: fx.coder, patches: fx.patches, inputs: inputs, check: want}
	if err := layerReplay(o, m, []string{"ht"}, []replayJob{job}); err != nil {
		return err
	}
	m.set("serve.self_us", m.metrics["serve.handle_us"]-m.metrics["fleet.request_us"])
	return nil
}

// replayRequests is how many requests a traced run replays layer by
// layer; a fixed count so exact counts are comparable across runs.
func replayRequests(o options) int {
	if o.small {
		return 20
	}
	return 3000
}

// benignInputs is the seeded benign request stream of client 0.
func benignInputs(svc *workload.Service, seed int64, n int) [][]byte {
	r := rng(seed, 0)
	out := make([][]byte, n)
	for i := range out {
		out[i] = workload.Request(benignLen(r, svc))
	}
	return out
}

// workloadLen decodes the 2-byte little-endian reply length of a
// service request.
func workloadLen(req []byte) uint64 { return uint64(req[0]) | uint64(req[1])<<8 }

// benignLoad runs serveClients closed-loop clients of seeded benign
// requests until each has sent count requests (count > 0) or dur has
// passed, checking every reply. stream offsets the seeded streams so
// warm-up and measurement draw different inputs. It returns every
// request's sample and the measured wall time.
func benignLoad(h http.Handler, svc *workload.Service, seed int64, stream, count int, dur time.Duration, m *meter) ([]sample, time.Duration) {
	lat := make([][]sample, serveClients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng(seed, 1+c+serveClients*(stream+1))
			cl := newClient(h)
			for i := 0; count > 0 && i < count || count == 0 && time.Now().Before(deadline); i++ {
				n := benignLen(r, svc)
				rep := cl.call(workload.Request(n))
				lat[c] = append(lat[c], newSample(time.Since(start), rep.d))
				m.op(checkBenign(rep, n))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return slices.Concat(lat...), elapsed
}

// checkAttack is "" when an attack served at epoch >= 1 (after a
// rollout) was defeated. A crash must be contained. A leak must be
// contained or reply with the intact reply buffer followed by zero
// bytes: under HT's overflow patch (Structure 2: [meta][user][pad]
// [guard page]) the leak's 256-byte overread can end inside the zeroed
// pad before the guard page, which yields pad bytes instead of a fault.
// Either way no secret byte leaves. Attacks at epoch 0 run on the
// unpatched table and are not checked.
func checkAttack(kind string, r reply, svc *workload.Service) string {
	if r.epoch == 0 {
		return ""
	}
	if r.code == http.StatusBadGateway && r.outcome == serve.OutcomeContained {
		return ""
	}
	if kind == "leak" && r.code == http.StatusOK && r.outcome == serve.OutcomeOK &&
		uint64(len(r.body)) == workloadLen(svc.LeakRequest()) &&
		bytes.Count(r.body[:svc.BufSize], []byte{'.'}) == int(svc.BufSize) &&
		bytes.Count(r.body[svc.BufSize:], []byte{0}) == len(r.body)-int(svc.BufSize) {
		return ""
	}
	return fmt.Sprintf("%s attack at epoch %d not defeated: HTTP %d outcome %q, %d reply bytes", kind, r.epoch, r.code, r.outcome, len(r.body))
}

// Rollout episodes: each client sends benign requests with a seeded
// share of attacks; the client that first sees a wild crash replays
// the crash as soon as a reply carries X-HTP-Epoch >= 1 (a rollout
// has landed), so each episode re-analyses the first crash and only the
// few random crashes that arrive before immunity.
const (
	crashShare    = 0.005 // of requests; each crash before immunity queues a re-analysis
	leakShare     = 0.03  // of requests
	postImmune    = 500   // requests per client after immunity
	episodeBudget = 10 * time.Second
)

type episode struct {
	lat      []sample
	immunity time.Duration
	traffic  time.Duration
	heapOps  uint64
	stats    serve.Stats
	fleet    fleet.Stats
}

// runEpisode runs one rollout episode on a fresh unpatched server.
func runEpisode(fx *serveFixture, seed int64, ep int, analyze func(*prog.Program, []byte) (*patch.Set, error), m *meter) (*episode, error) {
	srv, err := fx.server(analyze)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	start := time.Now()
	var wildAt, immuneAt atomic.Int64 // ns since start; 0 = not yet
	var replayer atomic.Int64         // 1 + client that saw the first wild
	lat := make([][]sample, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng(seed, 1000+ep*serveClients+c)
			cl := newClient(h)
			post, replayNext := 0, false
			for post < postImmune && time.Since(start) < episodeBudget {
				var body []byte
				kind := "benign"
				n := benignLen(r, fx.svc)
				switch x := r.Float64(); {
				case replayNext:
					kind = "crash"
				case x < crashShare:
					kind = "crash"
				case x < crashShare+leakShare:
					kind = "leak"
				}
				switch kind {
				case "crash":
					body = fx.svc.CrashRequest()
				case "leak":
					body = fx.svc.LeakRequest()
				default:
					body = workload.Request(n)
				}
				rep := cl.call(body)
				now := time.Since(start)
				lat[c] = append(lat[c], newSample(now, rep.d))
				if immuneAt.Load() != 0 {
					post++
				}
				replayNext = kind != "crash" && rep.epoch >= 1 && replayer.Load() == int64(c+1) && immuneAt.Load() == 0
				if kind == "benign" {
					m.op(checkBenign(rep, n))
					continue
				}
				m.op(checkAttack(kind, rep, fx.svc))
				switch {
				case rep.outcome == serve.OutcomeWild:
					if wildAt.CompareAndSwap(0, int64(now)) {
						replayer.Store(int64(c + 1))
					}
				case rep.outcome == serve.OutcomeContained && kind == "crash" && wildAt.Load() != 0:
					immuneAt.CompareAndSwap(0, int64(now))
				}
			}
		}(c)
	}
	wg.Wait()
	traffic := time.Since(start)
	st := srv.Fleet().Stats()
	srv.Drain()
	e := &episode{lat: slices.Concat(lat...), traffic: traffic, heapOps: st.Defense.Allocs + st.Defense.Frees, stats: srv.Stats(), fleet: st}
	if immuneAt.Load() == 0 {
		m.fail(fmt.Sprintf("episode %d did not reach immunity", ep))
	} else {
		e.immunity = time.Duration(immuneAt.Load() - wildAt.Load())
	}
	if e.stats.RolloutFails != 0 {
		m.fail(fmt.Sprintf("episode %d: %d rollout failures", ep, e.stats.RolloutFails))
	}
	return e, nil
}

func runServeRollout(o options, m *meter) error {
	var fx *serveFixture
	var srv *serve.Server
	setup, err := o.setups(func() (err error) {
		if fx, err = newServeFixture(false); err != nil {
			return err
		}
		srv, err = fx.server(nil)
		return err
	}, func() { srv.Drain() })
	if err != nil {
		return err
	}
	srv.Drain() // each episode starts its own server
	m.set("setup_s", setup)

	ta := &timedAnalyze{coder: fx.coder}
	var analyze func(*prog.Program, []byte) (*patch.Set, error)
	if o.trace {
		analyze = ta.analyze
	}
	// One untimed episode warms the Go heap and the code paths.
	if _, err := runEpisode(fx, o.seed, -1, analyze, m); err != nil {
		return err
	}
	dur := o.duration()
	if o.trace {
		dur /= 2
	}
	minEpisodes := 5
	if o.small {
		minEpisodes = 1
	}
	var lat []sample
	var immunity []float64
	var traffic time.Duration
	var heapOps, built, resets uint64
	var total serve.Stats
	gs := startGoStats()
	start := time.Now()
	for ep := 0; ep < minEpisodes || time.Since(start) < dur; ep++ {
		e, err := runEpisode(fx, o.seed, ep, analyze, m)
		if err != nil {
			return err
		}
		for _, x := range e.lat {
			lat = append(lat, sample{float32(traffic.Seconds()) + x.at, x.ms})
		}
		immunity = append(immunity, ms(e.immunity))
		traffic += e.traffic
		heapOps += e.heapOps
		total.Rejected += e.stats.Rejected + e.stats.QuotaRejected
		total.Contained += e.stats.Contained
		total.Wild += e.stats.Wild
		total.Rollouts += e.stats.Rollouts
		total.RolloutFails += e.stats.RolloutFails
		total.BundleDrops += e.stats.BundleDrops
		built += e.fleet.ContextsBuilt
		resets += e.fleet.Resets
	}
	m.set("fleet.contexts_built", float64(built))
	m.set("fleet.resets", float64(resets))
	gs.record(m, int64(len(lat)))
	p50 := setLatency(m, lat, traffic)
	m.set("heap_ops_per_s", float64(heapOps)/traffic.Seconds())
	m.set("serve.time_to_immunity_ms", median(immunity))
	m.detail["episodes"] = len(immunity)
	setServeStats(m, total)
	if !o.trace {
		return nil
	}

	m.set("serve.handle_us", 1e3*p50)
	m.set("analysis.analyze_ms", median(ta.ms))
	m.set("shadow.warnings", median(ta.warnings))
	m.set("encoding.plan_ms", ms(fx.planDur))
	m.set("encoding.coder_ms", ms(fx.codeDur))
	plainNs, err := rolloutReplay(o, m, fx, nil)
	if err != nil {
		return err
	}
	tracedNs, err := rolloutReplay(o, m, fx, newRecorder())
	if err != nil {
		return err
	}
	m.set("trace.overhead_pct", 100*float64(tracedNs-plainNs)/float64(max(plainNs, 1)))
	m.set("serve.self_us", m.metrics["serve.handle_us"]-m.metrics["fleet.request_us"])
	return nil
}

// rolloutReplay replays rollout episodes through the fleet API on one
// goroutine: benign requests, a crash that faults wild, re-analysis,
// SwapTable, then the crash replayed (contained) and the leak replayed
// (no secret) — deterministic, so its counts are exact.
// With a nil recorder it only replays (the tracing-overhead base) and
// returns the summed prog.run time.
func rolloutReplay(o options, m *meter, fx *serveFixture, rec *recorder) (int64, error) {
	episodes := 20
	if o.small {
		episodes = 2
	}
	var counts progCounts
	var stats []fleet.Stats
	var swaps, syncs []float64
	var tot replayTotals
	for ep := 0; ep < episodes; ep++ {
		f := fleet.New(fleet.Config{Workers: serveWorkers, Defended: true, Patches: patch.NewSet()})
		r, err := newReplayer(f, fx.p, fx.coder, rec)
		if err != nil {
			return 0, err
		}
		rg := rng(o.seed, 5000+ep)
		var inputs [][]byte
		for i := 0; i < 30+rg.Intn(30); i++ {
			inputs = append(inputs, workload.Request(benignLen(rg, fx.svc)))
		}
		inputs = append(inputs, fx.svc.CrashRequest(), fx.svc.BenignRequest(), fx.svc.CrashRequest(), fx.svc.LeakRequest())
		for i, in := range inputs {
			wild := false
			res, err := r.run(in, func(res *prog.Result) {
				wild = res.Crashed() && !containedOn(r.ctx, res.Fault)
			})
			if err != nil {
				r.close()
				return 0, err
			}
			counts.add(res)
			problem := ""
			switch {
			case i < len(inputs)-4 || i == len(inputs)-3:
				if res.Crashed() || uint64(len(res.Output)) != workloadLen(in) {
					problem = fmt.Sprintf("replayed benign request %d crashed or replied wrongly", i)
				}
			case i == len(inputs)-4:
				if !wild {
					problem = "first crash in replay was not wild"
				}
			case i == len(inputs)-2:
				if !res.Crashed() || wild {
					problem = "replayed crash after the swap was not contained"
				}
			default:
				if wild || bytes.Contains(res.Output, fx.svc.Secret()) {
					problem = "replayed leak after the swap was not defeated"
				}
			}
			m.op(problem)
			if wild {
				rep, err := (&analysis.Analyzer{Coder: fx.coder}).Analyze(fx.p, in)
				if err != nil {
					r.close()
					return 0, err
				}
				t0 := time.Now()
				if _, err := f.SwapTable(rep.Patches); err != nil {
					r.close()
					return 0, err
				}
				swaps = append(swaps, us(time.Since(t0)))
			}
		}
		r.close()
		syncs = append(syncs, r.syncSwaps...)
		tot.add(r)
		stats = append(stats, f.Stats())
	}
	if rec == nil {
		return tot.runNs, nil
	}
	counts.record(m)
	m.detail["defense_per_request_replayed"] = defenseCounts(m, stats)
	recordRunSpans(m, rec)
	m.set("fleet.swap_table_us", median(swaps))
	m.set("fleet.sync_table_us", median(syncs))
	recordBackend(m, "defense.ht", &tot)
	return tot.runNs, o.writeTrace(rec)
}

// containedOn mirrors serve's fault classification: a policy rejection
// or a fault on a guard (ProtNone) page is contained, anything else is
// wild.
func containedOn(ctx *fleet.Context, fault error) bool {
	if defense.IsContainmentFault(fault) {
		return true
	}
	if f, ok := mem.AsFault(fault); ok {
		if prot, err := ctx.Space().ProtAt(f.Addr); err == nil && prot == mem.ProtNone {
			return true
		}
	}
	return false
}
