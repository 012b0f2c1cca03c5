package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// runOnEngine is runOn with an explicit engine: one request on a
// context, snapshotted.
func runOnEngine(t *testing.T, engine prog.Engine, ctx *Context, p *prog.Program, coder *encoding.Coder, input []byte) snapshot {
	t.Helper()
	it, err := prog.NewExec(p, prog.Config{Backend: ctx.Backend(), Coder: coder, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return snap(t, res, ctx.Defender())
}

// TestFleetVMBitIdenticalAcrossReset: requests served by the compiled
// engine on a RECYCLED context must be bit-identical to the same requests
// served by the tree interpreter on FRESH contexts — the strongest
// cross-product of the two equivalence claims (engine identity and
// recycling identity), over both allocators, including the guard-page
// crash requests.
func TestFleetVMBitIdenticalAcrossReset(t *testing.T) {
	uaf := uafProgram()
	uafCoder, uafPatches := analyzeUAF(t, uaf)
	ovf := overflowProgram()
	ovfCoder, ovfPatches := overflowSetup(t, ovf)

	cases := []struct {
		name    string
		p       *prog.Program
		coder   *encoding.Coder
		patches *patch.Set
		inputs  [][]byte
	}{
		{"uaf", uaf, uafCoder, uafPatches, [][]byte{{0x00}, {0xEE}, {0x00}, {0xEE}}},
		{"guard-crash", ovf, ovfCoder, ovfPatches, [][]byte{{0}, {1}, {0}, {1}}},
	}
	for _, kind := range []AllocKind{AllocBoundaryTag, AllocPool} {
		for _, c := range cases {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				cfg := Config{Workers: 1, Defended: true, Patches: c.patches, Alloc: kind}

				// Compiled engine over one recycled context.
				cFleet := New(cfg)
				ctx, err := cFleet.newContext()
				if err != nil {
					t.Fatal(err)
				}
				var cSnaps []snapshot
				for _, in := range c.inputs {
					cSnaps = append(cSnaps, runOnEngine(t, prog.EngineCompiled, ctx, c.p, c.coder, in))
					if err := ctx.Reset(); err != nil {
						t.Fatal(err)
					}
				}

				// Tree over fresh contexts.
				freshFleet := New(cfg)
				for i, in := range c.inputs {
					fresh, err := freshFleet.newContext()
					if err != nil {
						t.Fatal(err)
					}
					want := runOn(t, fresh, c.p, c.coder, in)
					if cSnaps[i] != want {
						t.Errorf("request %d (%x): recycled compiled engine diverges from fresh tree\ncompiled: %+v\ntree:     %+v",
							i, in, cSnaps[i], want)
					}
				}
			})
		}
	}
}

// TestFleetVMReusedInstanceAcrossReset pins the inline-cache
// invalidation contract: ONE compiled-engine instance kept alive across
// Context.Reset must observe the rebuilt patch table (the defender
// bumps its generation on Reset) and still produce bit-identical
// snapshots to fresh tree-interpreter contexts. A stale verdict cache
// would surface as diverging PatchedAllocs or defense stats.
func TestFleetVMReusedInstanceAcrossReset(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	cfg := Config{Workers: 1, Defended: true, Patches: patches}

	f := New(cfg)
	ctx, err := f.newContext()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := prog.NewExec(p, prog.Config{Backend: ctx.Backend(), Coder: coder, Engine: prog.EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{{0x00}, {0xEE}, {0x00}, {0xEE}, {0xEE}}
	var cSnaps []snapshot
	for _, in := range inputs {
		res, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		cSnaps = append(cSnaps, snap(t, res, ctx.Defender()))
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
	}

	freshFleet := New(cfg)
	for i, in := range inputs {
		fresh, err := freshFleet.newContext()
		if err != nil {
			t.Fatal(err)
		}
		want := runOn(t, fresh, p, coder, in)
		if cSnaps[i] != want {
			t.Errorf("request %d: reused compiled engine across Reset diverges from fresh tree\ncompiled: %+v\ntree:     %+v",
				i, cSnaps[i], want)
		}
	}
}

// TestFleetServeEngines: full parallel Serve must return the same
// per-request results and merged fleet statistics under both engines.
// Compiled-engine workers share one Compiled, so whichever worker calls
// a function first lowers it while the others may be mid-request, and
// later requests run on code another worker lowered.
func TestFleetServeEngines(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)

	inputs := make([][]byte, 24)
	for i := range inputs {
		if i%3 == 0 {
			inputs[i] = []byte{0xEE}
		} else {
			inputs[i] = []byte{0x00}
		}
	}
	serve := func(engine prog.Engine) ([]*prog.Result, Stats) {
		f := New(Config{Workers: 4, Defended: true, Patches: patches, Engine: engine})
		res, err := f.Serve(p, coder, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return res, f.Stats()
	}
	tres, tstats := serve(prog.EngineTree)
	cres, cstats := serve(prog.EngineCompiled)
	for i := range tres {
		if !bytes.Equal(tres[i].Output, cres[i].Output) ||
			tres[i].Steps != cres[i].Steps ||
			tres[i].Cycles != cres[i].Cycles ||
			tres[i].Crashed() != cres[i].Crashed() {
			t.Errorf("request %d diverges across engines\ntree:     %+v\ncompiled: %+v", i, tres[i], cres[i])
		}
	}
	// ContextsBuilt depends on pool behavior, not the engine contract;
	// everything else must match exactly.
	tstats.ContextsBuilt, cstats.ContextsBuilt = 0, 0
	if !reflect.DeepEqual(tstats, cstats) {
		t.Errorf("fleet stats diverge\ntree:     %+v\ncompiled: %+v", tstats, cstats)
	}
}
