package main

import (
	"bytes"
	"fmt"
	"time"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/experiments"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// Each fleet has 2 workers and serves specRuns runs of each program
// per round.
const (
	specWorkers = 2
	specRuns    = 6
)

// specProgram is one of the two SPEC programs with its coder. A round
// serves its specRuns runs in fleet.Serve calls of perCall runs each.
type specProgram struct {
	name    string
	p       *prog.Program
	coder   *encoding.Coder
	perCall int
}

// specPrograms builds perlbench's Table IV churn program and
// xalancbmk's live-heap program with their coders, and how long the
// plans and coders took.
func specPrograms(o options) ([]specProgram, time.Duration, time.Duration, error) {
	// perlbench at Scale 100000 (3.6k allocations a run) keeps Table
	// IV's 60:1 compute-to-allocation ratio (the compute clamp does not
	// bind) while making one run short enough that a 10 s run holds
	// hundreds of operations; the live-heap program's 1000 live buffers
	// do not depend on Scale.
	cfg := workload.ProgramConfig{Scale: 100_000}
	if o.small {
		cfg.Scale = 1_000_000
	}
	perl, err := workload.BenchmarkByName("400.perlbench")
	if err != nil {
		return nil, 0, 0, err
	}
	xalan, err := workload.BenchmarkByName("483.xalancbmk")
	if err != nil {
		return nil, 0, 0, err
	}
	churn, _, err := perl.Program(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	live, err := xalan.LiveHeapProgram(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	// A round serves perlbench's runs in one call and the live-heap
	// program's in two (a live-heap run is several times shorter), so
	// two thirds of the calls come from one population and the p50 of
	// call latency falls inside it rather than between two equal ones.
	out := []specProgram{
		{name: "perlbench", p: churn, perCall: specRuns},
		{name: "xalancbmk-liveheap", p: live, perCall: specRuns / 2},
	}
	var plan, build time.Duration
	for i := range out {
		var pd, cd time.Duration
		if out[i].coder, pd, cd, err = timedCoder(out[i].p); err != nil {
			return nil, 0, 0, err
		}
		plan += pd
		build += cd
	}
	return out, plan, build, nil
}

// specCell is one (family, program) pair and its family's fleet.
type specCell struct {
	family string
	prog   int
	f      *fleet.Fleet
}

// specFleets builds one 2-worker fleet per family, serving both
// programs; HT fleets carry both programs' patches (the other families
// ignore them). One fleet per family, not per program, halves the time
// a fleet's pooled contexts sit unused between calls, which GC would
// otherwise empty from the pool at a rate that varied run to run.
func specFleets(progs []specProgram, patches *patch.Set) []specCell {
	var cells []specCell
	for _, fam := range defense.AllFamilies() {
		f := fleet.New(fleet.Config{Workers: specWorkers, Defended: true, Family: fam, Patches: patches})
		for i := range progs {
			cells = append(cells, specCell{family: fam.String(), prog: i, f: f})
		}
	}
	return cells
}

// specBaseline is what a correct run of each program must reproduce.
type specBaseline struct {
	output [][]byte
	// cycles[cell] is the virtual-cycle count every run of that cell
	// must repeat exactly (0 until the first run sets it).
	cycles []uint64
	// callMs[cell] collects the cell's fleet.Serve call times.
	callMs [][]float64
}

func runSpecPolicy(o options, m *meter) error {
	// Preparation, not timed: the patch choice (a profiling run per
	// program) and the native outputs every family must reproduce.
	progs, _, _, err := specPrograms(o)
	if err != nil {
		return err
	}
	base := &specBaseline{}
	patches := patch.NewSet()
	var perProg []int
	for _, sp := range progs {
		set, err := experiments.Figure8PatchSelection(sp.p, sp.coder, 5)
		if err != nil {
			return err
		}
		patches.Merge(set)
		perProg = append(perProg, set.Len())
		res, err := fleet.New(fleet.Config{Workers: 1}).Serve(sp.p, sp.coder, [][]byte{nil})
		if err != nil {
			return err
		}
		if res[0].Crashed() {
			return fmt.Errorf("%s faulted natively: %v", sp.name, res[0].Fault)
		}
		base.output = append(base.output, res[0].Output)
	}
	m.detail["patches"] = map[string]any{"per_program": perProg, "merged": patches.Len()}

	var cells []specCell
	var planDur, coderDur time.Duration
	setup, err := o.setups(func() (err error) {
		if progs, planDur, coderDur, err = specPrograms(o); err != nil {
			return err
		}
		cells = specFleets(progs, patches)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	m.set("setup_s", setup)
	base.cycles = make([]uint64, len(cells))
	base.callMs = make([][]float64, len(cells))

	// One untimed batch builds every fleet's worker contexts.
	if _, _, err := specBatch(cells, progs, base, rng(o.seed, 1), m); err != nil {
		return err
	}
	base.callMs = make([][]float64, len(cells))
	dur := o.duration()
	if o.trace {
		dur /= 2
	}
	var lat []sample
	var heapOps uint64
	var counts progCounts
	gs := startGoStats()
	r := rng(o.seed, 2)
	start := time.Now()
	for time.Since(start) < dur {
		l, res, err := specBatch(cells, progs, base, r, m)
		if err != nil {
			return err
		}
		for _, x := range l {
			lat = append(lat, sample{float32(time.Since(start).Seconds()), float32(x)})
		}
		for _, x := range res {
			heapOps += x.Allocs + x.Frees
			counts.add(x)
		}
	}
	elapsed := time.Since(start)
	gs.record(m, int64(counts.runs))
	setLatency(m, lat, elapsed)
	// Throughput counts runs, not the family batches latency times.
	m.set("throughput_rps", float64(counts.runs)/elapsed.Seconds())
	m.set("heap_ops_per_s", float64(heapOps)/elapsed.Seconds())
	m.detail["runs"] = counts.runs
	cellMs := map[string]float64{}
	for i, c := range cells {
		cellMs[c.family+"/"+progs[c.prog].name] = median(base.callMs[i])
	}
	m.detail["call_ms_p50"] = cellMs
	counts.record(m)
	var stats []fleet.Stats
	var built, resets uint64
	for _, c := range cells {
		st := c.f.Stats()
		stats = append(stats, st)
		built += st.ContextsBuilt
		resets += st.Resets
	}
	m.detail["defense_per_request"] = defenseCounts(m, stats)
	m.set("fleet.contexts_built", float64(built))
	m.set("fleet.resets", float64(resets))
	if !o.trace {
		return nil
	}

	m.set("encoding.plan_ms", ms(planDur))
	m.set("encoding.coder_ms", ms(coderDur))
	var jobs []replayJob
	for i, sp := range progs {
		want := base.output[i]
		jobs = append(jobs, replayJob{
			p: sp.p, coder: sp.coder, patches: patches, inputs: make([][]byte, specRuns),
			check: func(_ int, res *prog.Result) string {
				if res.Crashed() || !bytes.Equal(res.Output, want) {
					return fmt.Sprintf("replayed %s run faulted or diverged from native", sp.name)
				}
				return ""
			},
		})
	}
	var fams []string
	for _, f := range defense.AllFamilies() {
		fams = append(fams, f.String())
	}
	return layerReplay(o, m, fams, jobs)
}

// specBatch serves one round: for each family in an order drawn from
// r, each program's specRuns runs in fleet.Serve calls of its perCall
// runs, programs also in drawn order. Every run is checked: no fault,
// the native output, and the cell's virtual cycles repeated exactly.
// It returns each call's latency in ms and every run's result.
func specBatch(cells []specCell, progs []specProgram, base *specBaseline, r interface{ Perm(int) []int }, m *meter) ([]float64, []*prog.Result, error) {
	var lat []float64
	var all []*prog.Result
	nprog := len(progs)
	for _, fam := range r.Perm(len(cells) / nprog) {
		for _, pi := range r.Perm(nprog) {
			i := fam*nprog + pi
			c := cells[i]
			sp := progs[c.prog]
			for call := 0; call < specRuns/sp.perCall; call++ {
				t0 := time.Now()
				res, err := c.f.Serve(sp.p, sp.coder, make([][]byte, sp.perCall))
				d := ms(time.Since(t0))
				if err != nil {
					return nil, nil, err
				}
				lat = append(lat, d)
				base.callMs[i] = append(base.callMs[i], d)
				for _, x := range res {
					problem := ""
					switch {
					case x.Crashed():
						problem = fmt.Sprintf("%s under %s faulted: %v", sp.name, c.family, x.Fault)
					case !bytes.Equal(x.Output, base.output[c.prog]):
						problem = fmt.Sprintf("%s under %s: output differs from native", sp.name, c.family)
					case base.cycles[i] != 0 && x.Cycles != base.cycles[i]:
						problem = fmt.Sprintf("%s under %s: %d virtual cycles, earlier runs %d", sp.name, c.family, x.Cycles, base.cycles[i])
					}
					if base.cycles[i] == 0 {
						base.cycles[i] = x.Cycles
					}
					m.op(problem)
				}
				all = append(all, res...)
			}
		}
	}
	return lat, all, nil
}
