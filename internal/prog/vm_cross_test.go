package prog_test

// Cross-package differential verification of the compiled engine
// against the tree-walking interpreter over the analysis (shadow) and defense
// backends, driven by the Table II vulnerability corpus. These live in
// an external test package because shadow, defense, and vuln all
// import prog. The in-package suite (vm_test.go) covers the native
// backend, error paths, and the zero-allocation pin.

import (
	"bytes"
	"reflect"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/vuln"
)

// sameRun requires two executions to be observationally identical.
func sameRun(t *testing.T, label string, tr, mr *prog.Result, terr, merr error) {
	t.Helper()
	if (terr != nil) != (merr != nil) {
		t.Fatalf("%s: tree err = %v, compiled err = %v", label, terr, merr)
	}
	if terr != nil {
		if terr.Error() != merr.Error() {
			t.Fatalf("%s: error mismatch\ntree: %v\ncmp:  %v", label, terr, merr)
		}
		return
	}
	if !bytes.Equal(tr.Output, mr.Output) {
		t.Errorf("%s: output mismatch\ntree: %x\ncmp:  %x", label, tr.Output, mr.Output)
	}
	if !bytes.Equal(tr.Returned.Bytes, mr.Returned.Bytes) ||
		!bytes.Equal(tr.Returned.Valid, mr.Returned.Valid) ||
		!reflect.DeepEqual(tr.Returned.Origin, mr.Returned.Origin) {
		t.Errorf("%s: returned value mismatch\ntree: %+v\ncmp:  %+v", label, tr.Returned, mr.Returned)
	}
	if (tr.Fault != nil) != (mr.Fault != nil) {
		t.Fatalf("%s: fault mismatch: tree %v compiled %v", label, tr.Fault, mr.Fault)
	}
	if tr.Fault != nil && tr.Fault.Error() != mr.Fault.Error() {
		t.Errorf("%s: fault text mismatch\ntree: %v\ncmp:  %v", label, tr.Fault, mr.Fault)
	}
	if tr.Steps != mr.Steps || tr.Cycles != mr.Cycles || tr.InterpCycles != mr.InterpCycles ||
		tr.EncUpdates != mr.EncUpdates || tr.Allocs != mr.Allocs || tr.Frees != mr.Frees ||
		tr.AllocsByFn != mr.AllocsByFn {
		t.Errorf("%s: statistics mismatch\ntree: %+v\ncmp:  %+v", label, tr, mr)
	}
}

func corpusCoder(t *testing.T, p *prog.Program) *encoding.Coder {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCCE, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

func newShadow(t *testing.T) *shadow.Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := shadow.New(space, shadow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newDefense(t *testing.T, patches *patch.Set) *defense.Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := defense.NewBackend(space, defense.Config{Patches: patches})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVMDifferentialShadow: under the analysis backend both engines
// must record the exact same warning stream (type, addresses, access
// and allocation CCIDs, detail text) for every corpus case, on benign
// and attack inputs alike. The shadow backend observes CheckUse, so
// this also proves the compiled engine does not elide use checks for
// it.
func TestVMDifferentialShadow(t *testing.T) {
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)
			inputs := append(append([][]byte{}, c.Benign...), c.Attack)

			tb := newShadow(t)
			it, err := prog.New(c.Program, prog.Config{Backend: tb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := prog.Compile(c.Program, coder)
			if err != nil {
				t.Fatal(err)
			}
			mb := newShadow(t)
			m, err := prog.NewMachine(compiled, prog.Config{Backend: mb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				tr, terr := it.Run(in)
				mr, merr := m.Run(in)
				sameRun(t, c.Name, tr, mr, terr, merr)
			}
			if tw, mw := tb.Warnings(), mb.Warnings(); !reflect.DeepEqual(tw, mw) {
				t.Errorf("warning streams diverge\ntree:     %v\ncompiled: %v", tw, mw)
			}
			if tc, mc := tb.Cycles(), mb.Cycles(); tc != mc {
				t.Errorf("shadow cycles: tree %d compiled %d", tc, mc)
			}
		})
	}
}

// TestVMDifferentialDefense closes the paper's loop with both engines:
// analyze the attack under shadow (tree engine), turn the warnings
// into patches, then run benign and attack inputs on patched defense
// backends and require identical results AND identical defense
// statistics — Lookups, PatchedAllocs, GuardPages, ZeroFills,
// DeferredFrees, evictions, all of it. Patched sites exercise the
// compiled engine's patch-verdict inline caches with hits on every generation-stable
// allocation.
func TestVMDifferentialDefense(t *testing.T) {
	var sawPatched bool
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)

			// Offline analysis pass on the reference engine.
			sb := newShadow(t)
			it, err := prog.New(c.Program, prog.Config{Backend: sb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := it.Run(c.Attack); err != nil {
				t.Fatalf("analysis run: %v", err)
			}
			patches := patch.NewSet()
			for _, w := range sb.Warnings() {
				patches.Add(w.Patch())
			}

			inputs := append(append([][]byte{}, c.Benign...), c.Attack)

			tb := newDefense(t, patches)
			tit, err := prog.New(c.Program, prog.Config{Backend: tb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := prog.Compile(c.Program, coder)
			if err != nil {
				t.Fatal(err)
			}
			mbk := newDefense(t, patches)
			m, err := prog.NewMachine(compiled, prog.Config{Backend: mbk, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				tr, terr := tit.Run(in)
				mr, merr := m.Run(in)
				sameRun(t, c.Name, tr, mr, terr, merr)
			}
			ts, ms := tb.Defender().Stats(), mbk.Defender().Stats()
			if ts != ms {
				t.Errorf("defense stats diverge\ntree:     %+v\ncompiled: %+v", ts, ms)
			}
			if tc, mc := tb.Cycles(), mbk.Cycles(); tc != mc {
				t.Errorf("defense cycles: tree %d compiled %d", tc, mc)
			}
			if ts.PatchedAllocs > 0 {
				sawPatched = true
			}

			// The verdict inline caches must agree with the defender's
			// own alloc-time classification.
			var icPatched uint64
			for _, s := range m.SiteProfile() {
				icPatched += s.PatchedAllocs
			}
			if icPatched != ms.PatchedAllocs {
				t.Errorf("inline-cache patched count %d != defender PatchedAllocs %d", icPatched, ms.PatchedAllocs)
			}
		})
	}
	if !sawPatched {
		t.Error("no corpus case produced a patched allocation; verdict caches untested")
	}
}
