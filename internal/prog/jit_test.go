package prog

// Compiled-engine specifics beyond the shared differential sweeps in
// vm_test.go: construction/error paths, Prepare, closure code shared
// through the Compiled, threads lowering mid-schedule, and the
// steady-state zero-allocation pin.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
)

// hotProgram calls one helper repeatedly from a loop, so the helper is
// lowered to closure code at its first call in the middle of a run
// while main's loop is executing.
func hotProgram(iters uint64) *Program {
	return MustLink(&Program{
		Name: "hot",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "acc", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(iters)}, Body: []Stmt{
					Call{Dst: "acc", Callee: "work", Args: []Expr{V("acc"), V("i")}},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				OutputVar{Src: "acc"},
				Return{E: V("acc")},
			}},
			"work": {Params: []string{"a", "x"}, Body: []Stmt{
				Alloc{Dst: "p", Size: C(32)},
				Store{Base: V("p"), Src: Bin{Op: OpXor, A: V("a"), B: Bin{Op: OpMul, A: V("x"), B: C(31)}}},
				Load{Dst: "y", Base: V("p"), N: C(8)},
				FreeStmt{Ptr: V("p")},
				Return{E: V("y")},
			}},
		},
	})
}

// TestNewMachineValidation covers the construction error paths: nil
// program, missing backend, coder mismatch, an unlinked program, and a
// Config.Compiled built from a different program.
func TestNewMachineValidation(t *testing.T) {
	// diffProgHeap has allocation sites, so an encoding plan exists.
	p := diffProgHeap()
	c, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(nil, Config{Backend: newNative(t)}); err == nil {
		t.Error("NewMachine(nil) succeeded")
	}
	if _, err := NewMachine(c, Config{}); err == nil {
		t.Error("NewMachine without backend succeeded")
	}
	plan, err := encoding.NewPlan(encoding.SchemeFCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(c, Config{Backend: newNative(t), Coder: coder}); err == nil {
		t.Error("NewMachine with mismatched coder succeeded")
	}
	if _, err := Compile(&Program{Name: "unlinked", Funcs: map[string]*Func{"main": {}}}, nil); err == nil {
		t.Error("Compile of unlinked program succeeded")
	}
	other := hotProgram(5)
	_, err = NewExec(other, Config{Backend: newNative(t), Engine: EngineCompiled, Compiled: c})
	if err == nil || !strings.Contains(err.Error(), "Config.Compiled") {
		t.Errorf("NewExec with another program's Compiled: err = %v", err)
	}
}

// TestMachineClosureCacheShared: the closure cache lives in the
// Compiled, so a Machine entering after another already lowered every
// function starts directly on that code (the same step slices, not a
// second lowering), and machines sharing one Compiled concurrently
// must produce identical runs.
func TestMachineClosureCacheShared(t *testing.T) {
	p := hotProgram(32)
	c, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewMachine(c, Config{Backend: newNative(t)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, steps := range first.code {
		if len(steps) == 0 {
			t.Fatalf("function %d not lowered by a run that calls it", i)
		}
	}
	second, err := NewMachine(c, Config{Backend: newNative(t)})
	if err != nil {
		t.Fatal(err)
	}
	if second.shape != first.shape {
		t.Fatalf("same backend kind, different shapes: %+v vs %+v", first.shape, second.shape)
	}
	got, err := second.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "second", want, got, nil, nil)
	for i := range first.code {
		if &second.code[i][0] != &first.code[i][0] {
			t.Errorf("function %d lowered again instead of reusing the Compiled's code", i)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			space, err := mem.NewSpace(mem.Config{})
			if err != nil {
				errs[g] = err
				return
			}
			backend, err := NewNativeBackend(space)
			if err != nil {
				errs[g] = err
				return
			}
			m, err := NewMachine(c, Config{Backend: backend})
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < 20; i++ {
				res, err := m.Run(nil)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(res.Output, want.Output) || res.Cycles != want.Cycles {
					errs[g] = errStr("shared-cache machine diverged from reference run")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestMachineRunThreadsDuringTierUp: spawning threads whose functions
// are lowered mid-schedule (at first call, while sibling threads are
// parked mid-quantum) must match the tree engine exactly — including
// later threads that start on closure code the earlier ones lowered.
func TestMachineRunThreadsDuringTierUp(t *testing.T) {
	p := hotProgram(8)
	inputs := [][]byte{nil, nil, nil, nil, nil, nil}

	run := func(engine Engine) ([]*Result, uint64) {
		backend := newNative(t)
		res, err := RunThreads(p, Config{Backend: backend, Engine: engine}, inputs, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res, backend.Cycles()
	}
	tres, tcyc := run(EngineTree)
	mres, mcyc := run(EngineCompiled)
	for i := range tres {
		assertSameRun(t, "tierup-thread", tres[i], mres[i], nil, nil)
	}
	if tcyc != mcyc {
		t.Errorf("shared backend cycles: tree %d compiled %d", tcyc, mcyc)
	}
}

// TestPrepareSharesCompiled: Prepare compiles once under
// EngineCompiled (and keeps a Compiled it is handed), leaves a tree
// Config unchanged, and rejects an unknown engine.
func TestPrepareSharesCompiled(t *testing.T) {
	p := hotProgram(4)
	cfg, err := Prepare(p, Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Compiled == nil || cfg.Compiled.Program() != p {
		t.Fatalf("Prepare(compiled) left Compiled = %v", cfg.Compiled)
	}
	again, err := Prepare(p, cfg)
	if err != nil || again.Compiled != cfg.Compiled {
		t.Errorf("Prepare recompiled a prepared Config (err %v)", err)
	}
	cfg.Backend = newNative(t)
	ex, err := NewExec(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := ex.(*Machine); !ok || m.c != cfg.Compiled {
		t.Errorf("NewExec(prepared) = %T, not a Machine over the prepared Compiled", ex)
	}
	tree, err := Prepare(p, Config{})
	if err != nil || tree.Compiled != nil {
		t.Errorf("Prepare(tree) = %+v, %v; want unchanged", tree, err)
	}
	if _, err := Prepare(p, Config{Engine: Engine(99)}); err == nil {
		t.Error("Prepare with bogus engine succeeded")
	}
}

// TestMachineSteadyStateZeroAlloc pins the engine's zero-allocation
// property: once every function is lowered and the buffer pools are
// warm, RunReuse allocates nothing — registers, frames, output, and the
// Result all recycle their buffers.
func TestMachineSteadyStateZeroAlloc(t *testing.T) {
	p := pinProgram(64)
	backend := newNative(t)
	input := pinSetup(t, backend)

	c, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	// Lower every function and warm the pools.
	for i := 0; i < 2; i++ {
		if err := m.RunReuse(&res, input); err != nil {
			t.Fatal(err)
		}
		if res.Crashed() {
			t.Fatalf("pin run crashed: %v", res.Fault)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.RunReuse(&res, input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunReuse allocates %.1f objects/run, want 0", allocs)
	}
}
