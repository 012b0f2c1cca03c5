package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/prog"
)

// span is one timed call into a layer, made from the benchmark's side
// of the boundary. Spans of one request share Req; Parent is the index
// of the enclosing span (-1 for a root). Backend time inside a
// prog.run span is not split into per-call spans (a SPEC run makes
// tens of thousands of heap calls); it is summed into BackendNs, which
// counts as covered child time when self time is derived.
type span struct {
	Name      string `json:"name"`
	Req       int    `json:"req"`
	Parent    int    `json:"parent"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	BackendNs int64  `json:"backend_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.base))})
	return len(r.spans) - 1
}

// end closes span i, charging backendNs of backend time inside it.
func (r *recorder) end(i int, backendNs int64) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.base))
	r.spans[i].BackendNs = backendNs
}

// durations returns the duration in µs of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span named name, its duration minus the part
// covered by its child spans and its backend time, in µs.
func (r *recorder) selfTimes(name string) []float64 {
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i]-s.BackendNs)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}

// writeTrace stores a traced run's spans in a file of their own.
func (o options) writeTrace(rec *recorder) error {
	if o.traceDir == "" || !o.trace {
		return nil
	}
	return rec.write(o.traceDir, fmt.Sprintf("%s-seed%d-%d.jsonl", o.workload, o.seed, time.Now().UnixNano()))
}

// callTimes accumulates wall time and call counts per backend entry
// point class.
type callTimes struct {
	allocNs, freeNs, accessNs int64
	allocs, frees, accesses   int64
}

func (c *callTimes) total() int64 { return c.allocNs + c.freeNs + c.accessNs }

func (c *callTimes) add(o callTimes) {
	c.allocNs += o.allocNs
	c.freeNs += o.freeNs
	c.accessNs += o.accessNs
	c.allocs += o.allocs
	c.frees += o.frees
	c.accesses += o.accesses
}

// tracedBackend is a forwarding prog.HeapBackend that times every call
// into the backend below it (a defended or native fleet context's
// backend). It forwards the optional BulkLoader and UseObserver
// extensions so engines keep their fast paths; tracedProber adds
// PatchProber for backends that have it. A backend without
// BulkLoader would be given one here, so wrap only backends that
// implement both (every fleet context backend does).
type tracedBackend struct {
	under prog.HeapBackend
	bulk  prog.BulkLoader
	obs   prog.UseObserver
	t     callTimes
}

type tracedProber struct {
	*tracedBackend
	prober prog.PatchProber
}

// wrapBackend returns the timing wrapper for b and the accumulator it
// fills. It fails for a backend missing BulkLoader or UseObserver.
func wrapBackend(b prog.HeapBackend) (prog.HeapBackend, *tracedBackend, error) {
	bulk, ok1 := b.(prog.BulkLoader)
	obs, ok2 := b.(prog.UseObserver)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("trace: backend %T lacks BulkLoader or UseObserver", b)
	}
	tb := &tracedBackend{under: b, bulk: bulk, obs: obs}
	if p, ok := b.(prog.PatchProber); ok {
		return tracedProber{tb, p}, tb, nil
	}
	return tb, tb, nil
}

// take returns the accumulated times and zeroes them.
func (t *tracedBackend) take() callTimes {
	if t == nil {
		return callTimes{}
	}
	c := t.t
	t.t = callTimes{}
	return c
}

func (t *tracedBackend) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	s := time.Now()
	p, err := t.under.Alloc(fn, ccid, n, size, align)
	t.t.allocNs += int64(time.Since(s))
	t.t.allocs++
	return p, err
}

func (t *tracedBackend) Realloc(ccid, ptr, size uint64) (uint64, error) {
	s := time.Now()
	p, err := t.under.Realloc(ccid, ptr, size)
	t.t.allocNs += int64(time.Since(s))
	t.t.allocs++
	return p, err
}

func (t *tracedBackend) Free(ptr, ccid uint64) error {
	s := time.Now()
	err := t.under.Free(ptr, ccid)
	t.t.freeNs += int64(time.Since(s))
	t.t.frees++
	return err
}

func (t *tracedBackend) Load(addr, n, ccid uint64) (prog.Value, error) {
	s := time.Now()
	v, err := t.under.Load(addr, n, ccid)
	t.access(s)
	return v, err
}

func (t *tracedBackend) Store(addr uint64, v prog.Value, ccid uint64) error {
	s := time.Now()
	err := t.under.Store(addr, v, ccid)
	t.access(s)
	return err
}

func (t *tracedBackend) Memcpy(dst, src, n, ccid uint64) error {
	s := time.Now()
	err := t.under.Memcpy(dst, src, n, ccid)
	t.access(s)
	return err
}

func (t *tracedBackend) Memset(addr uint64, b byte, n, ccid uint64) error {
	s := time.Now()
	err := t.under.Memset(addr, b, n, ccid)
	t.access(s)
	return err
}

func (t *tracedBackend) LoadInto(dst *prog.Value, addr, n, ccid uint64) error {
	s := time.Now()
	err := t.bulk.LoadInto(dst, addr, n, ccid)
	t.access(s)
	return err
}

func (t *tracedBackend) access(s time.Time) {
	t.t.accessNs += int64(time.Since(s))
	t.t.accesses++
}

func (t *tracedBackend) CheckUse(v prog.Value, use prog.UseKind, ccid uint64) {
	t.under.CheckUse(v, use, ccid)
}

func (t *tracedBackend) Cycles() uint64    { return t.under.Cycles() }
func (t *tracedBackend) ObservesUse() bool { return t.obs.ObservesUse() }

func (t tracedProber) PatchTableGeneration() uint64 { return t.prober.PatchTableGeneration() }
func (t tracedProber) ProbePatched(fn heapsim.AllocFn, ccid uint64) bool {
	return t.prober.ProbePatched(fn, ccid)
}
