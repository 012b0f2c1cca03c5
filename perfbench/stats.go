package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank.
// xs is sorted in place.
func quantile[T float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// interquartileMean is the mean of the values of xs between its first
// and third quartile (all of xs when it has fewer than 4). xs is sorted
// in place.
func interquartileMean(xs []float64) float64 {
	sort.Float64s(xs)
	if n := len(xs); n >= 4 {
		xs = xs[n/4 : n-n/4]
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyondP99 is how many samples lie above the p99 rank: the guide's
// rule is that a reported percentile needs at least ten beyond it.
func beyondP99(n int) int {
	return n - int(math.Ceil(0.99*float64(n)))
}

// sample is one timed operation: when it completed, in seconds from
// the start of the measured phase, and how long it took in ms. It is
// 8 bytes because a run keeps every sample (serve-benign about 17 000
// a second) and peak_rss_mb should be the system's, not the samples'.
type sample struct {
	at float32
	ms float32
}

func newSample(at, d time.Duration) sample {
	return sample{float32(at.Seconds()), float32(ms(d))}
}

// setLatency stores latency_p99_ms and throughput_rps for the
// operations in samples, measured over elapsed, and returns the p50,
// which goes to the detail record only. The phase is cut into equal
// windows of at least a second that hold at least 1000 operations
// each, so every window's p99 has at least 10 samples beyond it, and
// each latency figure is the interquartile mean over windows of each
// window's quantile: the mean of the windows between the first and
// third quartile. Dropping the outer quarters keeps a few stalled
// windows from setting the p99. With fewer than 2000 operations there
// is one window.
//
// The p50 is not an end-to-end metric because it cannot be resolved on
// the host this was tuned on: operations there run in two speed modes
// about 1.9x apart, and the share of the fast mode changes over tens of
// seconds. The p99 lies inside the slow mode and throughput is a mean,
// so both move smoothly with that share; the median lies on the boundary
// between the modes and jumps from one to the other (README.md, "Noise
// floor and history").
func setLatency(m *meter, samples []sample, elapsed time.Duration) (p50ms float64) {
	n := len(samples)
	k := min(int(elapsed/time.Second), n/1000)
	if k < 1 {
		k = 1
	}
	width := elapsed.Seconds() / float64(k)
	lat := make([][]float32, k)
	all := make([]float32, 0, n)
	for _, s := range samples {
		w := min(int(float64(s.at)/width), k-1)
		lat[w] = append(lat[w], s.ms)
		all = append(all, s.ms)
	}
	p50 := make([]float64, k)
	p99 := make([]float64, k)
	for i, l := range lat {
		p50[i] = quantile(l, 0.5)
		p99[i] = quantile(l, 0.99)
	}
	p50ms = interquartileMean(p50)
	m.detail["latency_p50_ms"] = p50ms
	m.set("latency_p99_ms", interquartileMean(p99))
	m.set("throughput_rps", float64(n)/elapsed.Seconds())
	var deciles []float64
	for q := 1; q <= 9; q++ {
		deciles = append(deciles, quantile(all, float64(q)/10))
	}
	m.detail["latency_deciles_ms"] = deciles
	m.detail["latency_samples"] = n
	m.detail["latency_windows"] = k
	m.detail["samples_beyond_p99_per_window"] = beyondP99(n / k)
	return p50ms
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spinSink keeps the calibration loop from being optimized away.
var spinSink atomic.Uint64

// spin runs a fixed integer loop of n iterations.
func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// spinMs times a fixed integer loop. It is run at the start and end of
// every run so host speed drift is recorded beside the numbers instead
// of being read as a regression.
func spinMs() float64 {
	start := time.Now()
	spinSink.Add(spin(20_000_000))
	return ms(time.Since(start))
}

// hostWarmup keeps every CPU busy for a second. On the 2-vCPU host
// this benchmark was tuned on, the first second of work after idle ran
// at half speed (measured with the spin loop), which would otherwise
// land on set-up.
func hostWarmup() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(time.Second); time.Now().Before(end); {
				spinSink.Add(spin(1_000_000))
			}
		}()
	}
	wg.Wait()
}

// peakRSSMB is the process's peak resident set in MB (getrusage;
// Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostRecord describes the machine and build a result came from.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostRecord {
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo; "unknown"
// where the file is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary by the Go
// toolchain, or "unknown" when built outside a repository (as in a
// plain source checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// goStats is a runtime.MemStats delta over a measured phase.
type goStats struct {
	before runtime.MemStats
}

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.before)
	return g
}

// record stores the per-op allocation figures and GC activity since
// start into m's per-layer metrics.
func (g *goStats) record(m *meter, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	m.set("go.alloc_bytes_per_op", float64(after.TotalAlloc-g.before.TotalAlloc)/float64(ops))
	m.set("go.mallocs_per_op", float64(after.Mallocs-g.before.Mallocs)/float64(ops))
	m.set("go.gc_cycles", float64(after.NumGC-g.before.NumGC))
	m.set("go.gc_pause_ms", float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e6)
}
