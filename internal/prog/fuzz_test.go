package prog_test

// FuzzVMvsTree is the randomized arm of the differential suite: any
// program the textual front end accepts must behave bit-identically on
// the compiled engine's register machine and the tree-walking
// interpreter, for any input bytes. Seeds cover the Table II corpus (via progtext.Print) plus
// hand-written sources that hit the compiler's trickier lowerings
// (operand check ordering, while-in-while, calls in conditions' arms,
// explicit-CCID allocations). `go test` replays the seeds;
// `go test -fuzz=FuzzVMvsTree ./internal/prog` explores.

import (
	"bytes"
	"testing"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/vuln"
)

func FuzzVMvsTree(f *testing.F) {
	literals := []string{
		"func main {\n nop\n}\n",
		"func main {\n let x = inputlen\n let y = inputrem\n outputvar x\n outputvar y\n}\n",
		"func main {\n alloc p = malloc(64)\n store p, 7, 8\n load v, p, 8\n outputvar v\n free p\n}\n",
		"func main {\n alloc p = calloc(4, 8)\n memset p, 65, 32\n output p, 32\n free p\n}\n",
		"func main {\n let i = 0\n while (i < 10) {\n  let j = 0\n  while (j < 3) {\n   let j = (j + 1)\n  }\n  let i = (i + 1)\n }\n outputvar i\n}\n",
		"func main {\n input n, 1\n call r = f(n)\n outputvar r\n}\n\nfunc f(x) {\n if x {\n  call r = f((x - 1))\n  return (r + x)\n }\n return 0\n}\n",
		"func main {\n alloc p = malloc(16) ctx 48879\n realloc q = realloc(p, 64)\n free q\n}\n",
		"func main {\n let a = 1\n let r = (a / 0)\n let s = (a % 0)\n let t = (a << 200)\n outputvar r\n outputvar s\n outputvar t\n}\n",
		"func main {\n alloc p = memalign(64, 32)\n storevar p, p\n storebytes (p + 8), \"hi\"\n memcpy (p + 16), p, 10\n output (p + 8), 2\n free p\n}\n",
	}
	for _, src := range literals {
		f.Add(src, []byte{3})
	}
	for _, c := range vuln.Named() {
		f.Add(progtext.Print(c.Program), c.Attack)
		for _, b := range c.Benign {
			f.Add(progtext.Print(c.Program), b)
		}
	}
	f.Fuzz(func(t *testing.T, src string, input []byte) {
		p, err := progtext.Parse(src)
		if err != nil {
			return // not a program; parser fuzzing lives in progtext
		}
		// Bound runaway programs identically on both engines.
		base := prog.Config{MaxSteps: 200000, MaxDepth: 64}

		mkBackend := func() prog.HeapBackend {
			space, err := mem.NewSpace(mem.Config{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := prog.NewNativeBackend(space)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		tcfg := base
		tcfg.Backend = mkBackend()
		it, err := prog.New(p, tcfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		compiled, err := prog.Compile(p, nil)
		if err != nil {
			t.Fatalf("Compile accepted-by-parser program: %v", err)
		}
		mcfg := base
		mcfg.Backend = mkBackend()
		mach, err := prog.NewMachine(compiled, mcfg)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}

		check := func(engine string, tr, vr *prog.Result, terr, verr error) {
			if (terr != nil) != (verr != nil) {
				t.Fatalf("engines disagree on error: tree %v %s %v\n--- src ---\n%s", terr, engine, verr, src)
			}
			if terr != nil {
				if terr.Error() != verr.Error() {
					t.Fatalf("error text diverges:\ntree: %v\n%s:   %v\n--- src ---\n%s", terr, engine, verr, src)
				}
				return
			}
			if !bytes.Equal(tr.Output, vr.Output) {
				t.Fatalf("output diverges:\ntree: %x\n%s:   %x\n--- src ---\n%s", tr.Output, engine, vr.Output, src)
			}
			if (tr.Fault != nil) != (vr.Fault != nil) ||
				(tr.Fault != nil && tr.Fault.Error() != vr.Fault.Error()) {
				t.Fatalf("fault diverges:\ntree: %v\n%s:   %v\n--- src ---\n%s", tr.Fault, engine, vr.Fault, src)
			}
			if tr.Steps != vr.Steps || tr.Cycles != vr.Cycles || tr.InterpCycles != vr.InterpCycles ||
				tr.Allocs != vr.Allocs || tr.Frees != vr.Frees || tr.AllocsByFn != vr.AllocsByFn {
				t.Fatalf("statistics diverge:\ntree: %+v\n%s:   %+v\n--- src ---\n%s", tr, engine, vr, src)
			}
			if !bytes.Equal(tr.Returned.Bytes, vr.Returned.Bytes) {
				t.Fatalf("returned value diverges on %s\n--- src ---\n%s", engine, src)
			}
		}
		// Round 1 lowers each function the run reaches at its first call.
		tr, terr := it.Run(input)
		mr, merr := mach.Run(input)
		check("compiled", tr, mr, terr, merr)
		// Round 2: replay the input on both engines' (identically
		// evolved) heaps; the machine now runs already-lowered code.
		tr, terr = it.Run(input)
		mr, merr = mach.Run(input)
		check("compiled", tr, mr, terr, merr)
	})
}
