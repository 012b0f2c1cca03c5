package main

import (
	"fmt"
	"sync"
	"time"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/prog"
)

// Campaign windows: each campaign.Run covers campaignWindow seeds in
// shards of campaignShard, so consecutive seeds of one shard run on
// one worker and the gap between their OnSeed calls is one seed's
// latency (generate + full oracle check).
const (
	campaignWorkers = 2
	campaignWindow  = 128
	campaignShard   = 16
)

// campaignStart is the first seed of a run's seed window.
func campaignStart(seed int64) uint64 {
	return uint64(rng(seed, 0).Int63n(1 << 40))
}

// defendedHeapOps sums allocations plus frees over the defended cells
// of one oracle report.
func defendedHeapOps(rep *campaign.Report) uint64 {
	var n uint64
	for _, o := range rep.Outcomes {
		if o.Cell.Mode == campaign.ModeDefended && o.Result != nil {
			n += o.Result.Allocs + o.Result.Frees
		}
	}
	return n
}

// campaignLoad runs consecutive seed windows until dur has passed
// (at least one window), checking that every window checks every seed
// it was asked for and that no seed fails.
func campaignLoad(start uint64, dur time.Duration, m *meter) (lat []sample, seeds int, heapOps uint64, elapsed time.Duration, err error) {
	type last struct {
		seed uint64
		at   time.Time
	}
	began := time.Now()
	for w := start; w == start || time.Since(began) < dur; w += campaignWindow {
		var mu sync.Mutex
		prev := map[uint64]last{}
		rep, err := campaign.Run(campaign.RunConfig{
			Start:     w,
			Seeds:     campaignWindow,
			Workers:   campaignWorkers,
			ShardSize: campaignShard,
			OnSeed: func(seed uint64, _ campaign.VulnKind, rep *campaign.Report) {
				now := time.Now()
				ops := defendedHeapOps(rep)
				mu.Lock()
				shard := (seed - w) / campaignShard
				if p, ok := prev[shard]; ok && p.seed+1 == seed {
					lat = append(lat, newSample(now.Sub(began), now.Sub(p.at)))
				}
				prev[shard] = last{seed, now}
				heapOps += ops
				mu.Unlock()
				problem := ""
				if !rep.OK() {
					problem = fmt.Sprintf("seed %d failed the oracle: %v", seed, rep.Failures[0])
				}
				m.op(problem)
			},
		})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if rep.Cases != campaignWindow || rep.FailingSeeds != 0 {
			m.fail(fmt.Sprintf("window at %d: %d cases of %d, %d failing seeds", w, rep.Cases, campaignWindow, rep.FailingSeeds))
		}
		seeds += rep.Cases
	}
	return lat, seeds, heapOps, time.Since(began), nil
}

func runCampaign(o options, m *meter) error {
	start := campaignStart(o.seed)
	// Set-up is building a workbench for the default oracle and the
	// first check through it, which materializes every matrix cell.
	setup, err := o.setups(func() error {
		g, err := campaign.Generate(start, campaign.GenConfig{})
		if err != nil {
			return err
		}
		rep := campaign.NewWorkbench(campaign.Oracle{}).Check(g)
		m.op(problemIf(!rep.OK(), "set-up seed %d failed the oracle", start))
		return nil
	}, nil)
	if err != nil {
		return err
	}
	m.set("setup_s", setup)

	dur := o.duration()
	if o.trace {
		dur /= 2
	}
	gs := startGoStats()
	lat, seeds, heapOps, elapsed, err := campaignLoad(start, dur, m)
	if err != nil {
		return err
	}
	gs.record(m, int64(seeds))
	setLatency(m, lat, elapsed)
	// Throughput counts every checked seed, including each shard's
	// first, which has no latency sample.
	m.set("throughput_rps", float64(seeds)/elapsed.Seconds())
	m.set("heap_ops_per_s", float64(heapOps)/elapsed.Seconds())
	m.detail["seeds"] = seeds
	m.set("campaign.failing_seeds", float64(m.failed.Load()))
	if !o.trace {
		return nil
	}
	return campaignLayers(o, m, start)
}

// campaignLayers times the campaign's layers seed by seed on one
// goroutine: Generate, a pooled full-oracle Workbench.Check, a pooled
// one-engine check per engine, and the benign input replayed through
// a defended fleet for the engine and HT per-call times (once untraced
// first, for the tracing overhead).
func campaignLayers(o options, m *meter, start uint64) error {
	n := 40
	if o.small {
		n = 2
	}
	full := campaign.NewWorkbench(campaign.Oracle{})
	one := map[prog.Engine]*campaign.Workbench{}
	perEngine := map[prog.Engine][]float64{}
	for _, e := range prog.AllEngines() {
		one[e] = campaign.NewWorkbench(campaign.Oracle{Engines: []prog.Engine{e}})
	}
	var gen, check, plan, coderMs []float64
	var counts progCounts
	rec := newRecorder()
	var replays replayTotals
	var plainNs int64 // untraced prog.run time of the same replays
	for s := start; s < start+uint64(n); s++ {
		t0 := time.Now()
		g, err := campaign.Generate(s, campaign.GenConfig{})
		if err != nil {
			return err
		}
		gen = append(gen, us(time.Since(t0)))
		t0 = time.Now()
		rep := full.Check(g)
		check = append(check, ms(time.Since(t0)))
		m.op(problemIf(!rep.OK(), "seed %d failed the oracle", s))
		for _, o := range rep.Outcomes {
			if o.Result != nil {
				counts.add(o.Result)
			}
		}
		for _, e := range prog.AllEngines() {
			t0 = time.Now()
			r := one[e].Check(g)
			perEngine[e] = append(perEngine[e], ms(time.Since(t0)))
			m.op(problemIf(!r.OK(), "seed %d failed the %v oracle", s, e))
		}

		coder, pd, cd, err := timedCoder(g.Program)
		if err != nil {
			return err
		}
		plan = append(plan, ms(pd))
		coderMs = append(coderMs, ms(cd))
		cfg := fleet.Config{Workers: campaignWorkers, Defended: true}
		plain, err := replayAll(fleet.New(cfg), g.Program, coder, nil, [][]byte{g.Benign}, nil)
		if err != nil {
			return err
		}
		plainNs += plain.runNs
		r, err := replayAll(fleet.New(cfg), g.Program, coder, rec, [][]byte{g.Benign}, func(_ int, res *prog.Result) {
			problem := ""
			if res.Crashed() {
				problem = fmt.Sprintf("seed %d: benign input faulted on a defended fleet", s)
			}
			m.op(problem)
		})
		if err != nil {
			return err
		}
		replays.add(r)
	}
	m.set("campaign.generate_us", median(gen))
	m.set("campaign.check_ms", median(check))
	for _, e := range prog.AllEngines() {
		m.set("campaign.check_ms."+e.String(), median(perEngine[e]))
	}
	m.set("encoding.plan_ms", median(plan))
	m.set("encoding.coder_ms", median(coderMs))
	counts.record(m)
	recordBackend(m, "defense.ht", &replays)
	m.set("trace.overhead_pct", 100*float64(replays.runNs-plainNs)/float64(max(plainNs, 1)))
	recordRunSpans(m, rec)
	return o.writeTrace(rec)
}
