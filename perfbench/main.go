// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed time and prints, as its last line, a JSON
// object with the end-to-end metrics (untraced) or the per-layer
// metrics (--trace 1), after checking every output it produced.
//
//	bash perfbench/run.sh --workload serve-benign --seed 1 --seconds 10 --trace 0
//
// The workloads, their rationale and the metric-to-layer map are in
// workloads.go and README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceDir receives the span files of traced runs, inside the checkout
// the benchmark runs from.
const traceDir = ".bench_build/perfbench/traces"

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every size to its minimum (tests).
	small bool
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setups runs build repeatedly and returns the median duration in
// seconds: at least minSetups times and for at least a tenth of the
// measured time, so the median spans the host's speed changes (see
// setLatency) instead of landing on whichever speed the first
// milliseconds of a run had. discard is called between repetitions with
// the previous result to discard.
func (o options) setups(build func() error, discard func()) (float64, error) {
	reps, span := minSetups, o.duration()/10
	if o.small {
		reps, span = 2, 0
	}
	var times []float64
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < span && i < maxSetups; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		// Collect the previous repetition's garbage outside the timed
		// part, so each set-up starts from the same heap and the
		// repetitions do not raise peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// Set-up repetitions per run.
const (
	minSetups = 15
	maxSetups = 1000
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: traceDir}
	out, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"detail": out.detail}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !out.result.Correct {
		for _, e := range out.errs {
			fmt.Fprintln(stderr, "perfbench: FAILED:", e)
		}
		return 1
	}
	return 0
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints. Every workload
// defines every one of them; see README.md for the per-workload
// meaning of an "operation".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"heap_ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// families are the defense policy families, in defense.AllFamilies
// order.
var families = []string{"ht", "shadowbound", "mesh"}

// perLayer are the metrics every traced run prints; a layer the
// workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handle_us", "us"}, {"serve.self_us", "us"},
		{"serve.rejected", "count"}, {"serve.contained", "count"}, {"serve.wild", "count"},
		{"serve.rollouts", "count"}, {"serve.rollout_fails", "count"}, {"serve.bundle_drops", "count"},
		{"serve.time_to_immunity_ms", "ms"},
		{"fleet.request_us", "us"}, {"fleet.finish_us", "us"},
		{"fleet.sync_table_us", "us"}, {"fleet.swap_table_us", "us"},
		{"fleet.contexts_built", "count"}, {"fleet.resets", "count"},
		{"prog.run_us", "us"}, {"prog.self_us", "us"},
		{"prog.steps", "count"}, {"prog.virtual_cycles", "count"},
		{"prog.enc_updates", "count"}, {"prog.allocs", "count"}, {"prog.compile_ms", "ms"},
		{"encoding.plan_ms", "ms"}, {"encoding.coder_ms", "ms"}, {"encoding.updates_per_alloc", "1"},
	}
	for _, f := range families {
		l := "defense." + f
		defs = append(defs,
			metricDef{l + ".alloc_ns", "ns"}, metricDef{l + ".free_ns", "ns"},
			metricDef{l + ".access_ns", "ns"}, metricDef{l + ".share", "1"},
			metricDef{l + ".overhead_x", "x"})
	}
	return append(defs,
		metricDef{"defense.lookups", "count"}, metricDef{"defense.patched_allocs", "count"},
		metricDef{"defense.guard_pages", "count"}, metricDef{"defense.zero_fills", "count"},
		metricDef{"defense.deferred_frees", "count"}, metricDef{"defense.queue_evictions", "count"},
		metricDef{"heapsim.alloc_ns", "ns"}, metricDef{"heapsim.free_ns", "ns"},
		metricDef{"analysis.analyze_ms", "ms"}, metricDef{"shadow.warnings", "count"},
		metricDef{"campaign.generate_us", "us"}, metricDef{"campaign.check_ms", "ms"},
		metricDef{"campaign.check_ms.tree", "ms"}, metricDef{"campaign.check_ms.vm", "ms"},
		metricDef{"campaign.check_ms.compiled", "ms"}, metricDef{"campaign.failing_seeds", "count"},
		metricDef{"go.alloc_bytes_per_op", "B"}, metricDef{"go.mallocs_per_op", "count"},
		metricDef{"go.gc_cycles", "count"}, metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"host.spin_ms.before", "ms"}, metricDef{"host.spin_ms.after", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// meter collects one run's metrics, operation counts and failures.
// Counting methods are safe for concurrent clients; set and detail are
// called from the workload's own goroutine.
type meter struct {
	metrics   map[string]float64
	detail    map[string]any
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

func newMeter() *meter {
	return &meter{metrics: map[string]float64{}, detail: map[string]any{}}
}

func (m *meter) set(name string, v float64) { m.metrics[name] = v }

// op counts one attempted operation, failed when problem is non-empty.
func (m *meter) op(problem string) {
	m.attempted.Add(1)
	if problem != "" {
		m.fail(problem)
	}
}

// fail counts a failure without a new attempt (a check on work already
// counted, or an episode-level check).
func (m *meter) fail(problem string) {
	m.failed.Add(1)
	m.mu.Lock()
	if len(m.errs) < 10 {
		m.errs = append(m.errs, problem)
	}
	m.mu.Unlock()
}

// problemIf formats a problem when bad holds, "" otherwise.
func problemIf(bad bool, format string, args ...any) string {
	if !bad {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	result result
	detail map[string]any
	errs   []string
}

// measure runs w once and assembles its result: host record and drift
// calibration around the run, then the metric set the mode asks for.
func measure(w *bench, o options) (*output, error) {
	m := newMeter()
	hostWarmup()
	spinBefore := spinMs()
	if err := w.run(o, m); err != nil {
		return nil, err
	}
	spinAfter := spinMs()
	m.set("peak_rss_mb", peakRSSMB())
	m.set("host.spin_ms.before", spinBefore)
	m.set("host.spin_ms.after", spinAfter)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Attempted: m.attempted.Load(), Failed: m.failed.Load(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m.metrics[d.name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	m.detail["workload"] = w.name
	m.detail["seed"] = o.seed
	m.detail["seconds"] = o.seconds
	m.detail["trace"] = o.trace
	m.detail["host"] = host()
	m.detail["host_spin_ms"] = []float64{spinBefore, spinAfter}
	if !o.trace {
		// The per-layer values an untraced run also observes, so a
		// traced run's exact counts can be compared against it.
		extra := map[string]float64{}
		for k, v := range m.metrics {
			if !isEndToEnd(k) {
				extra[k] = v
			}
		}
		m.detail["observed"] = extra
	}
	return &output{result: res, detail: m.detail, errs: m.errs}, nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	var names []string
	for _, w := range benches {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func workloadByName(name string) *bench {
	for _, w := range benches {
		if w.name == name {
			return w
		}
	}
	return nil
}
