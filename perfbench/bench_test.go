package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/prog"
)

// smallRun runs w at its smallest size.
func smallRun(t *testing.T, name string, seed int64, trace bool) *output {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	out, err := measure(w, options{workload: name, seed: seed, seconds: 0.2, trace: trace, small: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, out.result.Correct, out.result.Attempted, out.result.Failed, out.errs)
	}
	return out
}

// TestSmoke runs every workload at its smallest size, untraced and
// traced, and checks that each emits exactly its metric set with the
// right units, and that a second seed yields the same metric names.
func TestSmoke(t *testing.T) {
	for _, w := range benches {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				a := smallRun(t, w.name, 1, trace)
				b := smallRun(t, w.name, 2, trace)
				for _, out := range []*output{a, b} {
					if len(out.result.Metrics) != len(defs) {
						t.Errorf("trace=%v: %d metrics, want %d", trace, len(out.result.Metrics), len(defs))
					}
					for _, d := range defs {
						v, ok := out.result.Metrics[d.name]
						if !ok || v.Unit != d.unit {
							t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, v, d.unit)
						}
						if !trace && v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
						}
					}
				}
			}
		})
	}
}

// TestSeedsChangeInputs checks that the seed reaches every workload's
// input generator.
func TestSeedsChangeInputs(t *testing.T) {
	fx, err := newServeFixture(false)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(benignInputs(fx.svc, 1, 50), benignInputs(fx.svc, 2, 50)) {
		t.Error("serve request streams equal for seeds 1 and 2")
	}
	if campaignStart(1) == campaignStart(2) {
		t.Error("campaign seed windows equal for seeds 1 and 2")
	}
	if reflect.DeepEqual(rng(1, 2).Perm(6), rng(2, 2).Perm(6)) {
		t.Error("spec-policy run orders equal for seeds 1 and 2")
	}
	if !reflect.DeepEqual(benignInputs(fx.svc, 3, 50), benignInputs(fx.svc, 3, 50)) {
		t.Error("same seed gave different inputs")
	}
}

// TestTracedBackendFidelity proves the forwarding backend wrapper
// leaves every prog.Result bit-identical to the unwrapped run, for
// every defense family (and the native backend) under the default
// engine, on the serve program and both SPEC programs.
func TestTracedBackendFidelity(t *testing.T) {
	fx, err := newServeFixture(true)
	if err != nil {
		t.Fatal(err)
	}
	progs, _, _, err := specPrograms(options{small: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []replayJob{{p: fx.p, coder: fx.coder, patches: fx.patches, inputs: append(benignInputs(fx.svc, 1, 5),
		fx.svc.LeakRequest(), fx.svc.CrashRequest(), fx.svc.BenignRequest())}}
	for _, sp := range progs {
		jobs = append(jobs, replayJob{p: sp.p, coder: sp.coder, inputs: make([][]byte, 2)})
	}
	cfgs := []fleet.Config{{Workers: 2}}
	for _, f := range defense.AllFamilies() {
		cfgs = append(cfgs, fleet.Config{Workers: 2, Defended: true, Family: f})
	}
	for _, cfg := range cfgs {
		for _, job := range jobs {
			name := fmt.Sprintf("%s/defended=%v/%v", job.p.Name, cfg.Defended, cfg.Family)
			c := cfg
			if c.Defended {
				c.Patches = job.patches
			}
			plain := results(t, fleet.New(c), job, nil)
			traced := results(t, fleet.New(c), job, newRecorder())
			for i := range plain {
				if a, b := fingerprint(plain[i]), fingerprint(traced[i]); a != b {
					t.Errorf("%s input %d: traced result differs\nplain:  %s\ntraced: %s", name, i, a, b)
				}
			}
		}
	}
}

func results(t *testing.T, f *fleet.Fleet, job replayJob, rec *recorder) []*prog.Result {
	t.Helper()
	var out []*prog.Result
	r, err := replayAll(f, job.p, job.coder, rec, job.inputs, func(_ int, res *prog.Result) { out = append(out, res) })
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil && (r.backend.allocs == 0 || len(rec.spans) == 0) {
		t.Fatal("traced replay recorded nothing")
	}
	return out
}

func fingerprint(r *prog.Result) string {
	fault := ""
	if r.Fault != nil {
		fault = r.Fault.Error()
	}
	return fmt.Sprintf("out=%x fault=%q ret=%v steps=%d cycles=%d interp=%d enc=%d allocs=%d frees=%d byfn=%v",
		r.Output, fault, r.Returned, r.Steps, r.Cycles, r.InterpCycles, r.EncUpdates, r.Allocs, r.Frees, r.AllocsByFn)
}

// TestTracedCountsMatchUntraced checks that a traced run's exact
// counts equal the untraced run's on the same seed, where the untraced
// run observes them: per-request defense counters on serve-benign and
// spec-policy, and spec-policy's per-run engine counters.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, name := range []string{"serve-benign", "spec-policy"} {
		t.Run(name, func(t *testing.T) {
			plain := smallRun(t, name, 7, false)
			traced := smallRun(t, name, 7, true)
			want := plain.detail["defense_per_request"].(map[string]float64)
			got := traced.detail["defense_per_request_replayed"].(map[string]float64)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("defense counts: untraced %v, traced %v", want, got)
			}
			observed := plain.detail["observed"].(map[string]float64)
			for _, k := range []string{"prog.steps", "prog.virtual_cycles", "prog.enc_updates", "prog.allocs"} {
				v, ok := observed[k]
				if !ok {
					continue // not observable through the untraced entry point
				}
				if got := traced.result.Metrics[k].Value; got != v {
					t.Errorf("%s: untraced %v, traced %v", k, v, got)
				}
			}
		})
	}
}

// TestLeakCheck pins the rollout workload's attack verdicts.
func TestLeakCheck(t *testing.T) {
	fx, err := newServeFixture(false)
	if err != nil {
		t.Fatal(err)
	}
	svc := fx.svc
	dots := bytes.Repeat([]byte{'.'}, int(svc.BufSize))
	cases := []struct {
		kind string
		r    reply
		ok   bool
	}{
		{"crash", reply{epoch: 0, code: 500, outcome: "wild"}, true},
		{"crash", reply{epoch: 1, code: 502, outcome: "contained"}, true},
		{"crash", reply{epoch: 1, code: 500, outcome: "wild"}, false},
		{"leak", reply{epoch: 1, code: 200, outcome: "ok", body: append(dots, make([]byte, 256)...)}, true},
		{"leak", reply{epoch: 1, code: 200, outcome: "ok", body: append(dots, svc.Secret()...)}, false},
		{"leak", reply{epoch: 1, code: 200, outcome: "ok", body: append(dots, bytes.Repeat([]byte{1}, 256)...)}, false},
		{"leak", reply{epoch: 1, code: 502, outcome: "contained"}, true},
		{"leak", reply{epoch: 2, code: 200, outcome: "ok", body: dots[:10]}, false},
	}
	for i, c := range cases {
		if got := checkAttack(c.kind, c.r, svc) == ""; got != c.ok {
			t.Errorf("case %d (%s): ok=%v, want %v", i, c.kind, got, c.ok)
		}
	}
}

// TestPatchedLeakReply pins what a leak returns from a patched server:
// the intact reply buffer followed by pad bytes, no secret.
func TestPatchedLeakReply(t *testing.T) {
	fx, err := newServeFixture(true)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fx.server(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	r := newClient(srv.Handler()).call(fx.svc.LeakRequest())
	r.epoch = 1 // pre-patched: the table every request runs on is patched
	if problem := checkAttack("leak", r, fx.svc); problem != "" {
		t.Fatal(problem)
	}
}
