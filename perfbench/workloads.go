package main

import (
	"math/rand"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/prog"
)

// bench is one named workload: an input set the benchmark runs. run measures
// for o.seconds, checks every output, and fills m: the end-to-end
// metrics always, the per-layer metrics too when o.trace is set.
type bench struct {
	name string
	run  func(o options, m *meter) error
}

// The four workloads. Every one drives the system only through public
// entry points (serve.Server.Handler, fleet.Fleet.Serve, campaign.Run,
// analysis.Analyzer.Analyze, encoding.NewPlan/NewCoder, prog.NewExec)
// and leaves Engine, Alloc, Mode, TierUp, QueueQuota and Telemetry at
// their zero values — tree engine, boundary-tag heap, full mode,
// telemetry off — so what is measured is what a user gets by default.
// Only spec-policy sets Family. The seed changes generated inputs
// only. README.md holds the longer rationale, the layer-to-metric map
// and the host noise floor.
var benches = []*bench{
	{
		// The request path every tenant pays for: serve admission and
		// dispatch, fleet sync/finish/reset, the default engine, HT
		// malloc/free with a guard-paged reply buffer. Bypasses shadow,
		// analysis (after set-up) and large call graphs.
		name: "serve-benign",
		run:  runServeBenign,
	},
	{
		// The only workload that runs fault classification, faulted
		// context resets, bundle capture, off-path shadow re-analysis,
		// patch merge/seal/SwapTable and verdict-cache invalidation,
		// with the rollout goroutine competing for the two cores.
		name: "serve-rollout",
		run:  runServeRollout,
	},
	{
		// The heaviest user of the generator, progtext, shadow,
		// analysis, all three engines and both allocators plus the
		// invariant walker; bypasses serve and fleet entirely.
		name: "campaign",
		run:  runCampaign,
	},
	{
		// The paper's own workload: encoding updates over a deep call
		// graph, the non-HT families and a SPEC-size live heap. No HTTP
		// and no analysis.
		name: "spec-policy",
		run:  runSpecPolicy,
	},
}

// rng returns the input generator for one stream of a run: the same
// seed and stream always give the same inputs.
func rng(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// timedCoder builds the incremental-plan PCC coder every serving path
// uses by default and reports how long plan and coder took.
func timedCoder(p *prog.Program) (coder *encoding.Coder, plan, build time.Duration, err error) {
	t0 := time.Now()
	pl, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	coder, err = encoding.NewCoder(encoding.EncoderPCC, p.Graph(), pl)
	return coder, t1.Sub(t0), time.Since(t1), err
}
