package main

import (
	"fmt"
	"time"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// replayer re-runs a workload's inputs through the fleet's public
// request API — Acquire, SyncTable, an executor from prog.NewExec over
// Context.Backend(), FinishRequest — the same steps a serve worker
// takes, one request at a time on the calling goroutine. With a
// recorder it wraps the backend in tracedBackend and records
// fleet.request, fleet.sync_table, prog.run and fleet.finish spans.
type replayer struct {
	f   *fleet.Fleet
	ctx *fleet.Context
	ex  prog.Exec
	tb  *tracedBackend // nil when untraced
	rec *recorder

	// backend accumulates backend call times over every replayed run.
	backend callTimes
	// runs, runNs: replayed runs and their summed prog.run wall time.
	runs  int64
	runNs int64
	// syncSwaps is the duration in µs of each SyncTable that picked up
	// a new table.
	syncSwaps []float64
	// nextReq numbers requests across calls for span grouping.
	nextReq int
}

// newReplayer checks a context out of f and binds an executor of the
// default engine to it.
func newReplayer(f *fleet.Fleet, p *prog.Program, coder *encoding.Coder, rec *recorder) (*replayer, error) {
	ctx, err := f.Acquire()
	if err != nil {
		return nil, fmt.Errorf("replay: acquire: %w", err)
	}
	r := &replayer{f: f, ctx: ctx, rec: rec}
	backend := ctx.Backend()
	if rec != nil {
		if backend, r.tb, err = wrapBackend(backend); err != nil {
			f.Release(ctx)
			return nil, err
		}
	}
	if r.ex, err = prog.NewExec(p, prog.Config{Backend: backend, Coder: coder}); err != nil {
		f.Release(ctx)
		return nil, fmt.Errorf("replay: executor: %w", err)
	}
	return r, nil
}

// run replays one request and returns its result; inspect, if
// non-nil, sees the result before the context is recycled.
func (r *replayer) run(input []byte, inspect func(*prog.Result)) (*prog.Result, error) {
	req := r.nextReq
	r.nextReq++
	top := r.rec.begin("fleet.request", req, -1)

	s := r.rec.begin("fleet.sync_table", req, top)
	t0 := time.Now()
	swapped := r.ctx.SyncTable(r.f)
	if swapped {
		r.syncSwaps = append(r.syncSwaps, us(time.Since(t0)))
	}
	r.rec.end(s, 0)

	s = r.rec.begin("prog.run", req, top)
	t0 = time.Now()
	res, err := r.ex.Run(input)
	r.runNs += int64(time.Since(t0))
	r.runs++
	bt := r.tb.take()
	r.backend.add(bt)
	r.rec.end(s, bt.total())
	if err != nil {
		r.rec.end(top, 0)
		return nil, fmt.Errorf("replay: run: %w", err)
	}

	if inspect != nil {
		inspect(res)
	}
	s = r.rec.begin("fleet.finish", req, top)
	err = r.f.FinishRequest(r.ctx, res.Crashed())
	r.rec.end(s, 0)
	r.rec.end(top, 0)
	if err != nil {
		return nil, fmt.Errorf("replay: finish: %w", err)
	}
	return res, nil
}

// replayAll replays inputs on a fresh context of f, calling inspect
// (if non-nil) on each result.
func replayAll(f *fleet.Fleet, p *prog.Program, coder *encoding.Coder, rec *recorder, inputs [][]byte, inspect func(int, *prog.Result)) (*replayer, error) {
	r, err := newReplayer(f, p, coder, rec)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for i, in := range inputs {
		res, err := r.run(in, nil)
		if err != nil {
			return nil, err
		}
		if inspect != nil {
			inspect(i, res)
		}
	}
	return r, nil
}

// close returns the context to the fleet.
func (r *replayer) close() { r.f.Release(r.ctx) }

// progCounts sums the exact per-run counters of prog.Result.
type progCounts struct {
	runs, steps, cycles, encUpdates, allocs uint64
}

func (c *progCounts) add(res *prog.Result) {
	c.runs++
	c.steps += res.Steps
	c.cycles += res.Cycles
	c.encUpdates += res.EncUpdates
	c.allocs += res.Allocs
}

// record stores per-run means of the counts into m.
func (c *progCounts) record(m *meter) {
	n := float64(max(c.runs, 1))
	m.set("prog.steps", float64(c.steps)/n)
	m.set("prog.virtual_cycles", float64(c.cycles)/n)
	m.set("prog.enc_updates", float64(c.encUpdates)/n)
	m.set("prog.allocs", float64(c.allocs)/n)
	if c.allocs > 0 {
		m.set("encoding.updates_per_alloc", float64(c.encUpdates)/float64(c.allocs))
	}
}

// defenseCounts stores the fleet's merged defense counters per request
// into m (and returns them for the detail record).
func defenseCounts(m *meter, stats []fleet.Stats) map[string]float64 {
	var reqs, lookups, patched, guards, zero, deferred, evict uint64
	for _, s := range stats {
		reqs += s.Requests
		d := s.Defense
		lookups += d.Lookups
		patched += d.PatchedAllocs
		guards += d.GuardPages
		zero += d.ZeroFills
		deferred += d.DeferredFrees
		evict += d.QueueEvictions
	}
	n := float64(max(reqs, 1))
	out := map[string]float64{
		"defense.lookups":         float64(lookups) / n,
		"defense.patched_allocs":  float64(patched) / n,
		"defense.guard_pages":     float64(guards) / n,
		"defense.zero_fills":      float64(zero) / n,
		"defense.deferred_frees":  float64(deferred) / n,
		"defense.queue_evictions": float64(evict) / n,
	}
	for k, v := range out {
		m.set(k, v)
	}
	return out
}

// replayTotals sums backend call times and prog.run time over replays.
type replayTotals struct {
	backend callTimes
	runNs   int64
}

func (t *replayTotals) add(r *replayer) {
	t.backend.add(r.backend)
	t.runNs += r.runNs
}

// recordBackend stores per-call times of one defense family (or the
// native heap, layer "heapsim") and its share of prog.run time.
func recordBackend(m *meter, layer string, r *replayTotals) {
	c := r.backend
	if c.allocs > 0 {
		m.set(layer+".alloc_ns", float64(c.allocNs)/float64(c.allocs))
	}
	if c.frees > 0 {
		m.set(layer+".free_ns", float64(c.freeNs)/float64(c.frees))
	}
	if c.accesses > 0 && layer != "heapsim" {
		m.set(layer+".access_ns", float64(c.accessNs)/float64(c.accesses))
	}
	if r.runNs > 0 && layer != "heapsim" {
		m.set(layer+".share", float64(c.total())/float64(r.runNs))
	}
}

// recordRunSpans stores prog.run and its self time (run minus backend
// time), fleet.request and fleet.finish medians from rec.
func recordRunSpans(m *meter, rec *recorder) {
	m.set("prog.run_us", median(rec.durations("prog.run")))
	m.set("prog.self_us", median(rec.selfTimes("prog.run")))
	m.set("fleet.request_us", median(rec.durations("fleet.request")))
	m.set("fleet.finish_us", median(rec.durations("fleet.finish")))
}

// replayJob is one program and its inputs for layerReplay; check
// validates each defended result ("" = correct).
type replayJob struct {
	p       *prog.Program
	coder   *encoding.Coder
	patches *patch.Set
	inputs  [][]byte
	check   func(i int, res *prog.Result) string
}

// layerReplay is a traced run's layer ladder: every job replayed
// through a defended fleet per family (traced), once untraced on the
// first family for the tracing overhead, and once through a native
// (Defended: false) fleet for the heapsim per-call times and the
// overhead_x base. Fleets have serving's shape: 2 workers, every other
// knob at its default.
func layerReplay(o options, m *meter, fams []string, jobs []replayJob) error {
	rec := newRecorder()
	var counts progCounts
	var stats []fleet.Stats
	// pass replays every job on fleets built from cfg and returns the
	// aggregate backend times and run time. Native fleets run the
	// program uninstrumented (no coder), the paper's baseline.
	pass := func(cfg fleet.Config, rec *recorder, inspect bool) (*replayTotals, error) {
		agg := &replayTotals{}
		for _, job := range jobs {
			c, coder := cfg, job.coder
			if c.Defended {
				c.Patches = job.patches
			} else {
				coder = nil
			}
			f := fleet.New(c)
			var see func(int, *prog.Result)
			if inspect {
				see = func(i int, res *prog.Result) {
					counts.add(res)
					m.op(job.check(i, res))
				}
			}
			r, err := replayAll(f, job.p, coder, rec, job.inputs, see)
			if err != nil {
				return nil, err
			}
			agg.add(r)
			if inspect {
				stats = append(stats, f.Stats())
			}
		}
		return agg, nil
	}
	first, err := defense.ParseFamily(fams[0])
	if err != nil {
		return err
	}
	// The untraced pass comes first and doubles as the warm-up, so the
	// native base is not measured cold.
	t0 := time.Now()
	if _, err := pass(fleet.Config{Workers: 2, Defended: true, Family: first}, nil, false); err != nil {
		return err
	}
	plain := time.Since(t0)
	native, err := pass(fleet.Config{Workers: 2}, newRecorder(), false)
	if err != nil {
		return err
	}
	recordBackend(m, "heapsim", native)
	for i, fam := range fams {
		family, err := defense.ParseFamily(fam)
		if err != nil {
			return err
		}
		cfg := fleet.Config{Workers: 2, Defended: true, Family: family}
		t0 := time.Now()
		r, err := pass(cfg, rec, true)
		if err != nil {
			return err
		}
		if i == 0 {
			m.set("trace.overhead_pct", 100*float64(time.Since(t0)-plain)/float64(plain))
		}
		recordBackend(m, "defense."+fam, r)
		m.set("defense."+fam+".overhead_x", float64(r.runNs)/float64(max(native.runNs, 1)))
	}
	counts.record(m)
	m.detail["defense_per_request_replayed"] = defenseCounts(m, stats)
	m.detail["overhead_x_base"] = "native: Defended=false fleet, uninstrumented (no coder), default engine, same inputs, traced the same way"
	recordRunSpans(m, rec)
	return o.writeTrace(rec)
}
