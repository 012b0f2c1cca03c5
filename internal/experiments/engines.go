package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/workload"
)

// EngineRow is one benchmark's tree-vs-compiled comparison.
type EngineRow struct {
	Bench string
	// TreeNsOp / CompiledNsOp are wall-clock nanoseconds per full
	// program execution on each engine, fresh backend included, at
	// steady state (one untimed warm-up run first, so the compiled
	// engine's rows exclude compiling and lowering).
	TreeNsOp     float64
	CompiledNsOp float64
	// Speedup is TreeNsOp / CompiledNsOp.
	Speedup float64
	// Cycles is the (engine-independent) virtual-cycle cost of one run;
	// the harness asserts both engines report exactly this value.
	Cycles uint64
}

// EngineComparisonResult reports the compiled engine's wall-clock
// advantage over the tree-walking interpreter on the Table IV
// workloads. Unlike the paper-reproduction experiments, which measure
// on the virtual-cycle axis (identical across engines by construction
// — and verified here on every run), this one measures the harness
// itself: how fast the simulation executes programs.
type EngineComparisonResult struct {
	Rows []EngineRow
	// GeomeanSpeedup is the geometric-mean speedup across benchmarks.
	GeomeanSpeedup float64
	// SteadyStateAllocs is testing.AllocsPerRun for Machine.RunReuse on
	// a heap-quiescent loop workload. The committed baseline pins 0:
	// the compiled engine allocates nothing per run once warmed up.
	SteadyStateAllocs float64
}

// steadySrc is the heap-quiescent pin workload: pure register/loop
// work, so any Go allocation observed per run belongs to engine
// dispatch, not to the simulated allocator.
const steadySrc = `func main {
 let i = 0
 let acc = 0
 while (i < 512) {
  let acc = ((acc * 31) ^ i)
  let i = (i + 1)
 }
 outputvar acc
}
`

func freshNative() (*prog.NativeBackend, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	return prog.NewNativeBackend(space)
}

// steadyStateAllocs measures Go allocations per warmed-up compiled run.
func steadyStateAllocs() (float64, error) {
	p, err := progtext.Parse(steadySrc)
	if err != nil {
		return 0, err
	}
	backend, err := freshNative()
	if err != nil {
		return 0, err
	}
	c, err := prog.Compile(p, nil)
	if err != nil {
		return 0, err
	}
	m, err := prog.NewMachine(c, prog.Config{Backend: backend})
	if err != nil {
		return 0, err
	}
	var res prog.Result
	if err := m.RunReuse(&res, nil); err != nil { // lower main, warm the buffers
		return 0, err
	}
	var runErr error
	n := testing.AllocsPerRun(20, func() {
		if err := m.RunReuse(&res, nil); err != nil {
			runErr = err
		}
	})
	return n, runErr
}

// EngineComparison times both engines on the Table IV workloads and
// cross-checks their virtual-cycle accounts for equality.
func EngineComparison(cfg Config) (*EngineComparisonResult, error) {
	benches := workload.SpecBenchmarks()
	reps := 3
	if cfg.Quick {
		benches = benches[:4]
		reps = 1
	}
	out := &EngineComparisonResult{}
	logSum, n := 0.0, 0
	for _, b := range benches {
		p, _, err := b.Program(cfg.programConfig())
		if err != nil {
			return nil, err
		}

		timeEngine := func(engine prog.Engine) (float64, uint64, error) {
			pcfg, err := prog.Prepare(p, prog.Config{Engine: engine})
			if err != nil {
				return 0, 0, err
			}
			var cycles uint64
			var elapsed time.Duration
			for r := 0; r <= reps; r++ { // run 0 is the untimed warm-up
				backend, err := freshNative()
				if err != nil {
					return 0, 0, err
				}
				pcfg.Backend = backend
				start := time.Now()
				it, err := prog.NewExec(p, pcfg)
				if err != nil {
					return 0, 0, err
				}
				res, err := it.Run(nil)
				if err != nil {
					return 0, 0, err
				}
				if r > 0 {
					elapsed += time.Since(start)
				}
				if res.Crashed() {
					return 0, 0, fmt.Errorf("experiments: %s crashed on %v: %v", p.Name, engine, res.Fault)
				}
				cycles = res.Cycles
			}
			return float64(elapsed.Nanoseconds()) / float64(reps), cycles, nil
		}

		treeNs, treeCyc, err := timeEngine(prog.EngineTree)
		if err != nil {
			return nil, err
		}
		compNs, compCyc, err := timeEngine(prog.EngineCompiled)
		if err != nil {
			return nil, err
		}
		if treeCyc != compCyc {
			return nil, fmt.Errorf("experiments: %s: engines disagree on cycles (tree %d, compiled %d)", p.Name, treeCyc, compCyc)
		}
		row := EngineRow{Bench: b.Name, TreeNsOp: treeNs, CompiledNsOp: compNs, Cycles: treeCyc}
		if compNs > 0 {
			row.Speedup = treeNs / compNs
			logSum += math.Log(row.Speedup)
			n++
		}
		out.Rows = append(out.Rows, row)
	}
	if n > 0 {
		out.GeomeanSpeedup = math.Exp(logSum / float64(n))
	}
	allocs, err := steadyStateAllocs()
	if err != nil {
		return nil, fmt.Errorf("experiments: steady-state pin: %w", err)
	}
	out.SteadyStateAllocs = allocs
	return out, nil
}

// Render prints the comparison.
func (r *EngineComparisonResult) Render() string {
	header := []string{"Benchmark", "tree ns/op", "compiled ns/op", "speedup", "cycles (equal)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.0f", row.TreeNsOp),
			fmt.Sprintf("%.0f", row.CompiledNsOp),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.Cycles),
		})
	}
	return fmt.Sprintf("Execution engines: tree-walker vs compiled (wall-clock; geomean speedup %.2fx; virtual cycles verified equal; steady-state compiled allocs/run %.0f)\n",
		r.GeomeanSpeedup, r.SteadyStateAllocs) + table(header, rows)
}
