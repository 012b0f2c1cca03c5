package prog

import (
	"fmt"
	"strings"
)

// Engine selects the execution substrate for a linked program: the
// reference tree-walking interpreter or the compiled engine, which
// lowers each function to closure code at its first call. The two are
// differentially verified to be bit-identical (results, statistics,
// crashes, cycle accounting); the tree-walker remains the semantic
// reference.
type Engine uint8

// Engines.
const (
	// EngineTree is the reference tree-walking interpreter (the zero
	// value, so existing configurations keep their behavior).
	EngineTree Engine = iota
	// EngineCompiled compiles the program to bytecode and runs it on a
	// Machine, which lowers each function to closure code at its first
	// call (see compile.go / jit.go).
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineCompiled:
		return "compiled"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// AllEngines lists the engines, reference first.
func AllEngines() []Engine { return []Engine{EngineTree, EngineCompiled} }

// ParseEngine parses an engine name (as printed by String).
func ParseEngine(s string) (Engine, error) {
	names := make([]string, 0, len(AllEngines()))
	for _, e := range AllEngines() {
		if e.String() == s {
			return e, nil
		}
		names = append(names, e.String())
	}
	return 0, fmt.Errorf("prog: unknown engine %q (valid: %s)", s, strings.Join(names, ", "))
}

// Exec is the engine-independent execution interface: one program
// instance bound to one backend, runnable many times. Both *Interp and
// *Machine implement it (and the unexported scheduling hook RunThreads
// needs), so every caller that holds an Exec works identically on
// either engine.
type Exec interface {
	Run(input []byte) (*Result, error)
}

// runner is the internal contract RunThreads needs on top of Exec.
type runner interface {
	Exec
	setSchedHook(every uint64, fn func())
}

// SetQuantumHook arranges for fn to run every `every` executed
// statements of ex, between statements (never mid-operation), on
// whichever engine backs ex. Campaign harnesses use it to walk heap
// and page-table invariants at quantum boundaries without touching
// interpreter hot paths. It reports whether ex supports hooking (both
// built-in engines do). every == 0 or fn == nil clears the hook.
func SetQuantumHook(ex Exec, every uint64, fn func()) bool {
	r, ok := ex.(runner)
	if !ok {
		return false
	}
	if every == 0 || fn == nil {
		r.setSchedHook(0, nil)
		return true
	}
	r.setSchedHook(every, fn)
	return true
}

// Prepare returns cfg completed with what every executor of p built
// from it can share. Under EngineCompiled that is p's Compiled program
// (compiled here unless cfg.Compiled already holds it), so executors
// built by NewExec from the returned Config also share the closure
// code each function is lowered to at its first call. Under the tree
// engine cfg comes back unchanged. cfg.Backend is not consulted.
func Prepare(p *Program, cfg Config) (Config, error) {
	switch cfg.Engine {
	case EngineTree:
		return cfg, nil
	case EngineCompiled:
		if cfg.Compiled == nil {
			c, err := Compile(p, cfg.Coder)
			if err != nil {
				return cfg, err
			}
			cfg.Compiled = c
		} else if cfg.Compiled.p != p {
			return cfg, fmt.Errorf("prog %s: Config.Compiled was compiled from program %s", p.Name, cfg.Compiled.p.Name)
		}
		return cfg, nil
	default:
		return cfg, fmt.Errorf("prog: unknown engine %v", cfg.Engine)
	}
}

// NewExec constructs an executor for p per cfg.Engine: the reference
// interpreter under EngineTree, a Machine under EngineCompiled. Pass a
// Config from Prepare to share one Compiled across executors;
// otherwise each call compiles p afresh.
func NewExec(p *Program, cfg Config) (Exec, error) {
	cfg, err := Prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	// Explicit nil returns: a nil *Machine or *Interp would be a
	// non-nil Exec.
	if cfg.Engine == EngineCompiled {
		m, err := NewMachine(cfg.Compiled, cfg)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	it, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	return it, nil
}
