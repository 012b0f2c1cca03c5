package prog

// The compiled engine (EngineCompiled). A Machine executes each
// function as a chain of Go closures (threaded code) lowered from the
// function's range of the flat bytecode that Compile produces. A
// function is lowered at its first call and the closures are cached
// in the Compiled program, so every Machine over one Compiled shares
// them. The closure code bakes in everything that is static at
// closure-compile time:
//
//   - operand kinds: register indexes and interned constants are
//     resolved to direct accessors, so no per-instruction operand
//     decode (sign check + constant-pool indirection) remains;
//   - encoding.SiteUpdate deltas: each instrumented call/alloc site's
//     V-update becomes plain integer arithmetic (V = 3*t + c or
//     V = t + c), exactly the instruction an instrumentation pass
//     would embed in a real binary;
//   - backend shape: CheckUse elision (UseObserver), the bulk-load
//     path (BulkLoader), and patch-verdict probing (PatchProber) are
//     decided once per backend shape instead of per instruction;
//   - superinstructions: a compare feeding a conditional branch, a
//     binary op feeding the loop-latch jump, and chained binary-op
//     pairs fuse into single closures, cutting dispatches on the
//     loop-head path.
//
// The step calling convention is deliberately thin: a step returns
// only the next step index. Faults are rare, so instead of returning
// an error interface pair from every step, a step that faults stages
// the error in Machine.trap and returns the stepFault sentinel; the
// driver unwraps it off the hot path.
//
// Everything observable through Run is bit-identical to the
// tree-walker — outputs, return values, faults, error text and order,
// statistics, and cycle accounting; the differential suites enforce
// it. Closure code never captures the executing Machine, only
// immutable Compiled data, so any number of Machines (fleet workers,
// interpreter threads) share it, with the Compiled program's lock
// taken only when a Machine first calls a function, never on the
// execution hot path.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// closStep is one compiled step. It executes and returns the index of
// the next step within the function, stepReturn when the function
// returns (the return value staged in Machine.retv), or stepFault
// when execution must abort (the error staged in Machine.trap).
type closStep = func(m *Machine, f *frameV) int32

// stepReturn is the "function returned" sentinel next-index;
// stepFault aborts the activation with the error in Machine.trap.
const (
	stepReturn int32 = -1
	stepFault  int32 = -2
)

// closShape is the backend specialization key: closure code compiled
// for one shape elides/bakes different backend interactions, so the
// Compiled program keeps one body per (function, shape).
type closShape struct {
	checkUse bool
	bulk     bool
	prober   bool
}

// closures returns (lowering on first demand) fn's closure code
// specialized for the given backend shape. The lock is taken once per
// (Machine, function): Machines keep the result in their own table.
func (c *Compiled) closures(shape closShape, fnIdx int32) []closStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	fns := c.byShape[shape]
	if fns == nil {
		if c.byShape == nil {
			c.byShape = make(map[closShape][][]closStep)
		}
		fns = make([][]closStep, len(c.funcs))
		c.byShape[shape] = fns
	}
	if fns[fnIdx] == nil {
		fc := &fnCompiler{c: c, fn: fnIdx, shape: shape}
		fns[fnIdx] = fc.compile()
	}
	return fns[fnIdx]
}

// Machine is the compiled engine. Like *Interp it is single-goroutine;
// unlike *Interp many Machines can share one Compiled.
type Machine struct {
	c        *Compiled
	backend  HeapBackend
	bulk     BulkLoader  // non-nil when backend supports LoadInto
	prober   PatchProber // non-nil when backend exposes patch verdicts
	checkUse bool        // false only when the backend disclaims use points
	maxSteps uint64
	maxDepth int

	// Per-run state.
	input      []byte
	inPos      int
	output     []byte
	v          uint64 // the thread-local CCID variable V
	steps      uint64
	cycles     uint64
	encUpdates uint64
	allocs     uint64
	allocsByFn [8]uint64
	frees      uint64
	fault      error

	frames  []*frameV // frame free list; frames[:nframes] are live
	nframes int
	globals []reg
	ics     []siteIC
	scratch Value // transient loads (Output)
	args    []*Value

	// Result.Returned staging capacity (RunReuse's zero-alloc path).
	retBytes  []byte
	retValid  []byte
	retOrigin []uint32

	// Cooperative scheduling hook (RunThreads).
	yield      func()
	yieldEvery uint64

	code  [][]closStep // this Machine's view of the shared closure code
	shape closShape
	retv  *Value // staging between a ret step and its driver
	trap  error  // staging between a faulting step and its driver

	// Unboxed scalar return staging: a compiled ret step whose value is
	// a shadow-free 8-byte scalar stages it here (retScalar set, retv
	// nil) so the caller can deliver it with reg.setU instead of a byte
	// copy. retBuf materializes the top-level return value.
	retU      uint64
	retScalar bool
	retBuf    Value

	// tickSlowAt folds the step-limit and scheduling-hook checks into
	// one compare on mtick's hot path: m.maxSteps normally, 0 when a
	// yield hook is installed (every tick must consider the hook).
	tickSlowAt uint64
}

var _ Exec = (*Machine)(nil)
var _ runner = (*Machine)(nil)

// NewMachine binds a compiled program to a backend. cfg.Coder must be
// the coder the program was compiled with; cfg.Engine and cfg.Compiled
// are ignored (c is the program).
func NewMachine(c *Compiled, cfg Config) (*Machine, error) {
	if c == nil {
		return nil, errors.New("prog: NewMachine with nil Compiled")
	}
	if cfg.Backend == nil {
		return nil, errors.New("prog: Config.Backend is required")
	}
	if cfg.Coder != c.coder {
		return nil, fmt.Errorf("prog %s: Config.Coder does not match the coder the program was compiled with", c.p.Name)
	}
	m := &Machine{
		c:        c,
		backend:  cfg.Backend,
		maxSteps: cfg.MaxSteps,
		maxDepth: cfg.MaxDepth,
		checkUse: true,
		globals:  make([]reg, len(c.globalNames)),
		ics:      make([]siteIC, c.icCount),
		code:     make([][]closStep, len(c.funcs)),
	}
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}
	if m.maxDepth == 0 {
		m.maxDepth = DefaultMaxDepth
	}
	m.bulk, _ = cfg.Backend.(BulkLoader)
	if obs, ok := cfg.Backend.(UseObserver); ok && !obs.ObservesUse() {
		// The backend guarantees CheckUse is a no-op: elide the calls.
		m.checkUse = false
	}
	m.prober, _ = cfg.Backend.(PatchProber)
	m.shape = closShape{checkUse: m.checkUse, bulk: m.bulk != nil, prober: m.prober != nil}
	m.tickSlowAt = m.maxSteps
	return m, nil
}

// setSchedHook implements the runner contract (see RunThreads). The
// hook is checked at every statement tick, so quantum boundaries are
// identical to the tree-walker's.
func (m *Machine) setSchedHook(every uint64, fn func()) {
	m.yieldEvery = every
	m.yield = fn
	if fn != nil {
		m.tickSlowAt = 0
	} else {
		m.tickSlowAt = m.maxSteps
	}
}

// SiteProfile reports the per-allocation-site profile accumulated by
// the verdict inline caches, in compile order. Sites only profile
// patch verdicts when the backend implements PatchProber; allocation
// counts accumulate regardless.
func (m *Machine) SiteProfile() []SiteStats {
	out := make([]SiteStats, 0, len(m.c.allocs))
	for i := range m.c.allocs {
		rec := &m.c.allocs[i]
		ic := &m.ics[rec.ic]
		out = append(out, SiteStats{
			Site:          rec.siteID,
			Fn:            rec.byFn,
			Allocs:        ic.allocs,
			PatchedAllocs: ic.patchedAllocs,
		})
	}
	return out
}

// Run executes the program on the given input; semantics are
// identical to Interp.Run.
func (m *Machine) Run(input []byte) (*Result, error) {
	res := &Result{}
	if err := m.run(res, input); err != nil {
		return nil, err
	}
	return res, nil
}

// RunReuse is Run recycling res's buffers (Output and Returned
// capacity), so steady-state re-execution allocates nothing. On a
// non-nil error (malformed program), res contents are unspecified,
// mirroring Run's nil result. Data in res from a previous run is
// overwritten; Returned's buffers are owned by the Machine and are
// invalidated by the next run.
func (m *Machine) RunReuse(res *Result, input []byte) error {
	return m.run(res, input)
}

func (m *Machine) run(res *Result, input []byte) error {
	m.input = input
	m.inPos = 0
	m.output = res.Output[:0]
	m.v = 0
	m.steps = 0
	m.cycles = 0
	m.encUpdates = 0
	m.allocs = 0
	m.allocsByFn = [8]uint64{}
	m.frees = 0
	m.fault = nil
	for i := range m.globals {
		m.globals[i].def = false
	}
	m.nframes = 0
	m.retv = nil
	m.trap = nil
	m.retScalar = false
	res.Returned = Value{}
	startCycles := m.backend.Cycles()

	f := m.pushFrame(0)
	rv, err := m.invoke(0, f)
	if err == nil {
		if m.retScalar {
			m.retScalar = false
			if cap(m.retBuf.Bytes) < 8 {
				m.retBuf.Bytes = make([]byte, 8)
			}
			m.retBuf.Bytes = m.retBuf.Bytes[:8]
			binary.LittleEndian.PutUint64(m.retBuf.Bytes, m.retU)
			rv = &m.retBuf
		}
		m.setReturned(res, rv)
	}
	// Steps are counted without charging the per-statement cycle cost
	// (see mtick); settle it in one multiply so cycle totals match the
	// tree-walker exactly.
	m.cycles += CycStmt * m.steps
	res.Output = m.output
	res.Steps = m.steps
	res.EncUpdates = m.encUpdates
	res.Allocs = m.allocs
	res.AllocsByFn = m.allocsByFn
	res.Frees = m.frees
	res.InterpCycles = m.cycles
	res.Cycles = m.cycles + (m.backend.Cycles() - startCycles)
	res.Fault = nil
	if err != nil {
		if errors.Is(err, errCrashed) {
			res.Fault = m.fault
			return nil
		}
		return err
	}
	return nil
}

// invoke runs one activation of funcs[fnIdx] in frame f, lowering the
// function to closure code on this Machine's first call to it.
func (m *Machine) invoke(fnIdx int32, f *frameV) (*Value, error) {
	steps := m.code[fnIdx]
	if steps == nil {
		steps = m.c.closures(m.shape, fnIdx)
		m.code[fnIdx] = steps
	}
	return m.runSteps(steps, f)
}

// runSteps drives one activation through compiled closure code. The
// loop is the whole hot path: one indexed load and one indirect call
// per superinstruction, with return/fault peeled off as negative
// sentinels.
func (m *Machine) runSteps(steps []closStep, f *frameV) (*Value, error) {
	var i int32
	for i >= 0 {
		i = steps[i](m, f)
	}
	if i == stepReturn {
		rv := m.retv
		m.retv = nil
		return rv, nil
	}
	err := m.trap
	m.trap = nil
	return nil, err
}

// mtick is the per-statement bookkeeping: step count, step limit, and
// the cooperative-scheduling hook. It reports false — with the error
// staged in trap — when the step limit is hit. It does NOT charge
// CycStmt here; run() charges CycStmt*steps once at the end, which is
// arithmetically identical and keeps this prefix inside the inlining
// budget.
func (m *Machine) mtick() bool {
	m.steps++
	if m.steps > m.tickSlowAt {
		return m.mtickSlow()
	}
	return true
}

// mtickSlow keeps the step-limit unwind and the scheduling hook out
// of mtick's inlinable hot prefix. With a yield hook installed every
// tick lands here; that is the threaded configuration, where the
// hook's own cost dominates anyway.
//
//go:noinline
func (m *Machine) mtickSlow() bool {
	if m.steps > m.maxSteps {
		return m.stepLimit()
	}
	if m.yield != nil && m.steps%m.yieldEvery == 0 {
		m.yield()
	}
	return true
}

//go:noinline
func (m *Machine) stepLimit() bool {
	m.trap = fmt.Errorf("prog %s: step limit %d exceeded", m.c.p.Name, m.maxSteps)
	return false
}

// fetch resolves a baked operand reference: an interned constant (no
// checks) or a register with the definedness check. nil means the
// undefined-variable error (the tree-walker's exact text) is staged
// in trap. The returned Value is always materialized, so it is safe
// to hand to backends, registers, and shadow consumers.
func (m *Machine) fetch(f *frameV, o *opref) *Value {
	if o.k != nil {
		return o.k
	}
	r := &f.regs[o.idx]
	if !r.def {
		m.fetchUndef(o)
		return nil
	}
	if r.uok {
		r.materialize()
	}
	return &r.val
}

// fetchScalar is fetch's unboxed fast path. It reports scalarOK when
// the operand is a shadow-free 8-byte scalar — a baked constant, a
// cached setU scalar, or a clean materialized scalar — without
// touching byte buffers. scalarFault means the undefined-variable
// error is staged in trap; scalarBoxed means the caller must fall
// back to fetch (shadow planes or a non-8-byte value).
const (
	scalarOK int32 = iota
	scalarBoxed
	scalarFault
)

func (m *Machine) fetchScalar(f *frameV, o *opref) (uint64, int32) {
	if o.k != nil {
		return o.ku, scalarOK
	}
	r := &f.regs[o.idx]
	// uok implies the cached u is current (every byte-level write
	// clears it); def guards against a stale cache on a recycled frame
	// whose registers were reset.
	if r.uok && r.def {
		return r.u, scalarOK
	}
	return m.fetchScalarSlow(r, o)
}

// fetchScalarSlow handles the cases off fetchScalar's inlinable hot
// prefix: undefined registers, clean materialized 8-byte scalars, and
// the boxed fallback signal.
//
//go:noinline
func (m *Machine) fetchScalarSlow(r *reg, o *opref) (uint64, int32) {
	if !r.def {
		m.fetchUndef(o)
		return 0, scalarFault
	}
	if r.val.Valid == nil && r.val.Origin == nil && len(r.val.Bytes) == 8 {
		return binary.LittleEndian.Uint64(r.val.Bytes), scalarOK
	}
	return 0, scalarBoxed
}

// fetchUint resolves an operand consumed only as an integer (sizes,
// counts, addresses outside CheckUse shapes), preferring the unboxed
// path. ok=false means the undefined-variable error is staged.
func (m *Machine) fetchUint(f *frameV, o *opref) (uint64, bool) {
	if o.k != nil {
		return o.ku, true
	}
	r := &f.regs[o.idx]
	if r.uok && r.def {
		return r.u, true
	}
	return m.fetchUintSlow(f, r, o)
}

//go:noinline
func (m *Machine) fetchUintSlow(f *frameV, r *reg, o *opref) (uint64, bool) {
	u, s := m.fetchScalarSlow(r, o)
	if s == scalarOK {
		return u, true
	}
	if s == scalarFault {
		return 0, false
	}
	v := m.fetch(f, o)
	if v == nil {
		return 0, false
	}
	return v.Uint(), true
}

//go:noinline
func (m *Machine) fetchUndef(o *opref) {
	m.trap = m.undefVar(o.name)
}

// opref is an operand resolved at closure-compile time: either a
// direct pointer to an interned constant (with its scalar view ku
// baked — the constant pool only holds clean 8-byte scalars) or a
// register index plus the variable name needed for the
// undefined-variable error.
type opref struct {
	idx  int32
	k    *Value
	ku   uint64
	name string
}

// fnCompiler lowers one function's instruction range into closure
// code for one backend shape. Nothing it builds captures a Machine:
// closures reference only immutable Compiled data and baked scalars,
// receiving the executing Machine and frame as parameters.
type fnCompiler struct {
	c     *Compiled
	fn    int32
	shape closShape

	entry, end int32
	stepOf     []int32 // rel pc -> step index (-1 inside a fused unit)
}

// ref bakes one instruction operand.
func (fc *fnCompiler) ref(o int32) opref {
	if o >= 0 {
		return opref{idx: o, name: fc.c.funcs[fc.fn].regNames[o]}
	}
	return opref{idx: -1, k: &fc.c.consts[^o], ku: fc.c.constU[^o]}
}

// fnRange computes [entry, end) for fn in the flat instruction
// stream: functions are emitted contiguously, so end is the smallest
// entry greater than fn's (or the end of the stream).
func fnRange(c *Compiled, fnIdx int32) (int32, int32) {
	entry := c.funcs[fnIdx].entry
	end := int32(len(c.code))
	for i := range c.funcs {
		if e := c.funcs[i].entry; e > entry && e < end {
			end = e
		}
	}
	return entry, end
}

// compile lowers the function. Two passes: the first partitions the
// range into units (fusing eligible pairs, never across a jump
// target) and assigns step indexes; the second builds the closures
// with final next/branch indexes baked in.
func (fc *fnCompiler) compile() []closStep {
	fc.entry, fc.end = fnRange(fc.c, fc.fn)
	code := fc.c.code
	n := int(fc.end - fc.entry)

	isTarget := make([]bool, n)
	for pc := fc.entry; pc < fc.end; pc++ {
		switch code[pc].op {
		case opJump, opBr:
			if t := code[pc].aux; t >= fc.entry && t < fc.end {
				isTarget[t-fc.entry] = true
			}
		}
	}

	type unit struct {
		pc    int32
		fused bool
	}
	var units []unit
	fc.stepOf = make([]int32, n)
	for pc := fc.entry; pc < fc.end; {
		u := unit{pc: pc}
		if pc+1 < fc.end && !isTarget[pc+1-fc.entry] {
			ins, nxt := &code[pc], &code[pc+1]
			switch {
			case ins.op == opBin && nxt.op == opBr && nxt.a == ins.dst:
				u.fused = true
			case ins.op == opBin && nxt.op == opJump:
				u.fused = true
			case ins.op == opBin && nxt.op == opBin:
				u.fused = true
			}
		}
		fc.stepOf[pc-fc.entry] = int32(len(units))
		units = append(units, u)
		if u.fused {
			fc.stepOf[pc+1-fc.entry] = -1
			pc += 2
		} else {
			pc++
		}
	}

	steps := make([]closStep, len(units))
	for i, u := range units {
		steps[i] = fc.build(u.pc, u.fused)
	}
	return steps
}

// stepAt maps an absolute pc to its step index. A pc at or past the
// function end cannot be produced by well-formed bytecode (every
// function is terminated by opRetVoid); map it to a bare void return
// so even hypothetical malformed code cannot index out of range.
func (fc *fnCompiler) stepAt(pc int32) int32 {
	if pc < fc.entry || pc >= fc.end {
		return stepReturn
	}
	return fc.stepOf[pc-fc.entry]
}

// build lowers the unit starting at pc (two instructions when fused).
func (fc *fnCompiler) build(pc int32, fused bool) closStep {
	c := fc.c
	ins := &c.code[pc]
	tick := ins.tick
	next := fc.stepAt(pc + 1)
	if fused {
		next = fc.stepAt(pc + 2)
	}

	if fused {
		nxt := &c.code[pc+1]
		switch nxt.op {
		case opBr:
			return fc.buildBinBr(ins, nxt, next)
		case opJump:
			return fc.buildBinJmp(ins, nxt)
		default:
			return fc.buildBinBin(ins, nxt, next)
		}
	}

	switch ins.op {
	case opNop:
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			return next
		}

	case opCheckVar:
		idx := ins.a
		name := c.funcs[fc.fn].regNames[idx]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			if !f.regs[idx].def {
				m.trap = m.undefVar(name)
				return stepFault
			}
			return next
		}

	case opLoadK:
		dst := ins.dst
		u := c.constU[^ins.a]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(u)
			return next
		}

	case opMove:
		dst := ins.dst
		a := fc.ref(ins.a)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			if aConst {
				f.regs[dst].setU(aku)
				return next
			}
			if ra := &f.regs[aIdx]; ra.uok && ra.def {
				f.regs[dst].setU(ra.u)
				return next
			}
			src := m.fetch(f, &a)
			if src == nil {
				return stepFault
			}
			f.regs[dst].set(src)
			return next
		}

	case opBin:
		dst, bop := ins.dst, ins.bop
		a, b := fc.ref(ins.a), fc.ref(ins.b)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		bConst, bku, bIdx := b.k != nil, b.ku, b.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			var au, bu uint64
			fast := true
			if aConst {
				au = aku
			} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
				au = ra.u
			} else {
				fast = false
			}
			if fast {
				if bConst {
					bu = bku
				} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
					bu = rb.u
				} else {
					fast = false
				}
			}
			if fast {
				r, err := binScalar(bop, au, bu)
				if err != nil {
					m.trap = err
					return stepFault
				}
				f.regs[dst].setU(r)
				return next
			}
			if !binInto(m, f, bop, &a, &b, dst) {
				return stepFault
			}
			return next
		}

	case opInputLen:
		dst := ins.dst
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(uint64(len(m.input)))
			return next
		}

	case opInputRem:
		dst := ins.dst
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(uint64(len(m.input) - m.inPos))
			return next
		}

	case opGlobalGet:
		dst, aux := ins.dst, ins.aux
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			g := &m.globals[aux]
			if g.def {
				f.regs[dst].set(&g.val)
			} else {
				f.regs[dst].setScalar(0)
			}
			return next
		}

	case opGlobalSet:
		aux := ins.aux
		a := fc.ref(ins.a)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			src := m.fetch(f, &a)
			if src == nil {
				return stepFault
			}
			m.globals[aux].set(src)
			return next
		}

	case opJump:
		tgt := fc.stepAt(ins.aux)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			return tgt
		}

	case opBr:
		a := fc.ref(ins.a)
		elseIdx := fc.stepAt(ins.aux)
		if !fc.shape.checkUse {
			aConst, aku, aIdx := a.k != nil, a.ku, a.idx
			return func(m *Machine, f *frameV) int32 {
				if tick && !m.mtick() {
					return stepFault
				}
				var cv uint64
				if aConst {
					cv = aku
				} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
					cv = ra.u
				} else {
					u, ok := m.fetchUintSlow(f, &f.regs[aIdx], &a)
					if !ok {
						return stepFault
					}
					cv = u
				}
				if cv == 0 {
					return elseIdx
				}
				return next
			}
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			cv := m.fetch(f, &a)
			if cv == nil {
				return stepFault
			}
			m.backend.CheckUse(*cv, UseControlFlow, m.v)
			if cv.Uint() == 0 {
				return elseIdx
			}
			return next
		}

	case opCall:
		return fc.buildCall(ins, tick, next)

	case opRet:
		a := fc.ref(ins.a)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			// Stage a scalar unboxed when possible; the call site (or
			// run's top-level unwind) consumes retU/retScalar immediately
			// after invoke returns.
			if aConst {
				m.retU = aku
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			if ra := &f.regs[aIdx]; ra.uok && ra.def {
				m.retU = ra.u
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			u, s := m.fetchScalarSlow(&f.regs[aIdx], &a)
			if s == scalarOK {
				m.retU = u
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			if s == scalarFault {
				return stepFault
			}
			v := m.fetch(f, &a)
			if v == nil {
				return stepFault
			}
			m.retv = v
			return stepReturn
		}

	case opRetVoid:
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			m.retv = nil
			return stepReturn
		}

	case opAlloc, opRealloc:
		return fc.buildAlloc(ins, tick, next)

	case opFree:
		a := fc.ref(ins.a)
		if !fc.shape.checkUse {
			return func(m *Machine, f *frameV) int32 {
				if tick && !m.mtick() {
					return stepFault
				}
				pu, ok := m.fetchUint(f, &a)
				if !ok {
					return stepFault
				}
				m.frees++
				if ferr := m.backend.Free(pu, m.v); ferr != nil {
					m.trap = m.crash(ferr)
					return stepFault
				}
				return next
			}
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			pv := m.fetch(f, &a)
			if pv == nil {
				return stepFault
			}
			m.backend.CheckUse(*pv, UseAddress, m.v)
			m.frees++
			if ferr := m.backend.Free(pv.Uint(), m.v); ferr != nil {
				m.trap = m.crash(ferr)
				return stepFault
			}
			return next
		}

	case opLoad:
		dst := ins.dst
		ea := fc.buildAddr(ins.a, ins.b)
		nref := fc.ref(ins.c)
		bulk := fc.shape.bulk
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			r := &f.regs[dst]
			if bulk {
				if lerr := m.loadIntoReg(r, addr, nv.Uint()); lerr != nil {
					m.trap = m.crash(lerr)
					return stepFault
				}
			} else {
				v, lerr := m.backend.Load(addr, nv.Uint(), m.v)
				if lerr != nil {
					m.trap = m.crash(lerr)
					return stepFault
				}
				r.val = v
				r.uok = false
				r.def = true
			}
			return next
		}

	case opStore:
		ea := fc.buildAddr(ins.a, ins.b)
		src := fc.ref(ins.c)
		hasN := ins.dst != opndNone
		var nref opref
		if hasN {
			nref = fc.ref(ins.dst)
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			n := uint64(8)
			if hasN {
				nv := m.fetch(f, &nref)
				if nv == nil {
					return stepFault
				}
				n = nv.Uint()
				if n > 8 {
					n = 8
				}
			}
			if serr := m.backend.Store(addr, sv.View(0, int(n)), m.v); serr != nil {
				m.trap = m.crash(serr)
				return stepFault
			}
			return next
		}

	case opStoreVar:
		ea := fc.buildAddr(ins.a, ins.b)
		src := fc.ref(ins.c)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			if serr := m.backend.Store(addr, *sv, m.v); serr != nil {
				m.trap = m.crash(serr)
				return stepFault
			}
			return next
		}

	case opStoreBytes:
		ea := fc.buildAddr(ins.a, ins.b)
		data := c.datas[ins.aux]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			if serr := m.backend.Store(addr, data, m.v); serr != nil {
				m.trap = m.crash(serr)
				return stepFault
			}
			return next
		}

	case opMemcpy:
		a, b, nref := fc.ref(ins.a), fc.ref(ins.b), fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			dv := m.fetch(f, &a)
			if dv == nil {
				return stepFault
			}
			sv := m.fetch(f, &b)
			if sv == nil {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			if cu {
				m.backend.CheckUse(*dv, UseAddress, m.v)
				m.backend.CheckUse(*sv, UseAddress, m.v)
			}
			if merr := m.backend.Memcpy(dv.Uint(), sv.Uint(), nv.Uint(), m.v); merr != nil {
				m.trap = m.crash(merr)
				return stepFault
			}
			return next
		}

	case opMemset:
		a, b, nref := fc.ref(ins.a), fc.ref(ins.b), fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			dv := m.fetch(f, &a)
			if dv == nil {
				return stepFault
			}
			bv := m.fetch(f, &b)
			if bv == nil {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			if cu {
				m.backend.CheckUse(*dv, UseAddress, m.v)
			}
			if merr := m.backend.Memset(dv.Uint(), byte(bv.Uint()), nv.Uint(), m.v); merr != nil {
				m.trap = m.crash(merr)
				return stepFault
			}
			return next
		}

	case opReadInput:
		dst := ins.dst
		a := fc.ref(ins.a)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			nv := m.fetch(f, &a)
			if nv == nil {
				return stepFault
			}
			// Clamp in uint64 space (see the tree-walker's ReadInput).
			take := len(m.input) - m.inPos
			if nu := nv.Uint(); nu < uint64(take) {
				take = int(nu)
			}
			r := &f.regs[dst]
			if cap(r.val.Bytes) < take {
				r.val.Bytes = make([]byte, take)
			} else {
				r.val.Bytes = r.val.Bytes[:take]
			}
			copy(r.val.Bytes, m.input[m.inPos:m.inPos+take])
			m.inPos += take
			r.val.Valid = nil
			r.val.Origin = nil
			r.uok = false
			r.def = true
			return next
		}

	case opOutput:
		ea := fc.buildAddr(ins.a, ins.b)
		nref := fc.ref(ins.c)
		bulk, cu := fc.shape.bulk, fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			if bulk {
				if lerr := m.bulk.LoadInto(&m.scratch, addr, nv.Uint(), m.v); lerr != nil {
					m.trap = m.crash(lerr)
					return stepFault
				}
				if cu {
					m.backend.CheckUse(m.scratch, UseOutput, m.v)
				}
				m.output = append(m.output, m.scratch.Bytes...)
				return next
			}
			v, lerr := m.backend.Load(addr, nv.Uint(), m.v)
			if lerr != nil {
				m.trap = m.crash(lerr)
				return stepFault
			}
			if cu {
				m.backend.CheckUse(v, UseOutput, m.v)
			}
			m.output = append(m.output, v.Bytes...)
			return next
		}

	case opOutputVar:
		src := fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			if cu {
				m.backend.CheckUse(*sv, UseOutput, m.v)
			}
			m.output = append(m.output, sv.Bytes...)
			return next
		}

	default:
		// Unreachable for Compile-produced bytecode; report a runtime
		// error for hypothetical malformed streams.
		op := ins.op
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			m.trap = fmt.Errorf("prog %s: unknown opcode %d", m.c.p.Name, op)
			return stepFault
		}
	}
}

// buildAddr bakes an effective-address computation (base + optional
// offset with use-point checks), mirroring the tree-walker's evalAddr.
// false means a fault is staged in trap.
func (fc *fnCompiler) buildAddr(a, b int32) func(m *Machine, f *frameV) (uint64, bool) {
	base := fc.ref(a)
	if !fc.shape.checkUse {
		bConst, bku, bIdx := base.k != nil, base.ku, base.idx
		if b == opndNone {
			return func(m *Machine, f *frameV) (uint64, bool) {
				if bConst {
					return bku, true
				}
				if r := &f.regs[bIdx]; r.uok && r.def {
					return r.u, true
				}
				return m.fetchUintSlow(f, &f.regs[bIdx], &base)
			}
		}
		off := fc.ref(b)
		oConst, oku, oIdx := off.k != nil, off.ku, off.idx
		return func(m *Machine, f *frameV) (uint64, bool) {
			var bu, ou uint64
			if bConst {
				bu = bku
			} else if r := &f.regs[bIdx]; r.uok && r.def {
				bu = r.u
			} else {
				u, ok := m.fetchUintSlow(f, &f.regs[bIdx], &base)
				if !ok {
					return 0, false
				}
				bu = u
			}
			if oConst {
				ou = oku
			} else if r := &f.regs[oIdx]; r.uok && r.def {
				ou = r.u
			} else {
				u, ok := m.fetchUintSlow(f, &f.regs[oIdx], &off)
				if !ok {
					return 0, false
				}
				ou = u
			}
			return bu + ou, true
		}
	}
	if b == opndNone {
		return func(m *Machine, f *frameV) (uint64, bool) {
			bv := m.fetch(f, &base)
			if bv == nil {
				return 0, false
			}
			m.backend.CheckUse(*bv, UseAddress, m.v)
			return bv.Uint(), true
		}
	}
	off := fc.ref(b)
	return func(m *Machine, f *frameV) (uint64, bool) {
		bv := m.fetch(f, &base)
		if bv == nil {
			return 0, false
		}
		m.backend.CheckUse(*bv, UseAddress, m.v)
		ov := m.fetch(f, &off)
		if ov == nil {
			return 0, false
		}
		m.backend.CheckUse(*ov, UseAddress, m.v)
		return bv.Uint() + ov.Uint(), true
	}
}

// buildCall bakes one call site: static arity, the SiteUpdate as
// plain integer arithmetic, and the callee's prologue cost. The
// callee dispatches through invoke, so it is lowered at its first
// call even in the middle of a caller's activation. Arities up to
// four stage arguments in a stack buffer instead of the machine's
// shared slice.
func (fc *fnCompiler) buildCall(ins *instr, tick bool, next int32) closStep {
	c := fc.c
	rec := &c.calls[ins.aux]
	callee := &c.funcs[rec.fnIdx]
	argRefs := make([]opref, len(rec.args))
	for i, o := range rec.args {
		argRefs[i] = fc.ref(o)
	}
	fnIdx, dst := rec.fnIdx, rec.dst
	nparams := int(callee.nparams)
	calleeName := callee.name
	prologue := callee.prologue
	instrumented := rec.upd.Instrumented
	mul3 := rec.upd.Mul3
	konst := rec.upd.Const
	encCyc := c.encCycles
	arityBad := len(argRefs) != nparams

	argN := len(argRefs)

	// Both variants inline the full call sequence — argument staging,
	// arity/depth checks, V update, cycle charges, frame push, callee
	// dispatch, V restore, return delivery — so a compiled call costs
	// one closure invocation plus the callee itself. Argument fetch
	// errors sort before the arity error, which sorts before the depth
	// error (the tree-walker's order).
	if argN <= 4 {
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			// Stage each argument unboxed when possible; a nil vbuf entry
			// means ubuf holds the scalar.
			var ubuf [4]uint64
			var vbuf [4]*Value
			for i := range argRefs {
				o := &argRefs[i]
				if o.k != nil {
					ubuf[i] = o.ku
					continue
				}
				r := &f.regs[o.idx]
				if r.uok && r.def {
					ubuf[i] = r.u
					continue
				}
				u, s := m.fetchScalarSlow(r, o)
				if s == scalarOK {
					ubuf[i] = u
					continue
				}
				if s == scalarFault {
					return stepFault
				}
				v := m.fetch(f, o)
				if v == nil {
					return stepFault
				}
				vbuf[i] = v
			}
			if arityBad {
				m.trap = fmt.Errorf("prog %s: call to %s with %d args, want %d",
					m.c.p.Name, calleeName, argN, nparams)
				return stepFault
			}
			if m.nframes > m.maxDepth {
				m.trap = fmt.Errorf("prog %s: call depth limit %d exceeded", m.c.p.Name, m.maxDepth)
				return stepFault
			}
			if instrumented {
				if mul3 {
					m.v = 3*f.t + konst
				} else {
					m.v = f.t + konst
				}
				m.encUpdates++
				m.cycles += encCyc
			}
			m.cycles += CycCall
			nf := m.pushFrame(fnIdx)
			for i := 0; i < argN; i++ {
				if vbuf[i] == nil {
					nf.regs[i].setU(ubuf[i])
				} else {
					nf.regs[i].set(vbuf[i])
				}
			}
			if prologue {
				m.cycles += CycEncPrologue
			}
			rv, err := m.invoke(fnIdx, nf)
			if err != nil {
				m.trap = err
				return stepFault
			}
			m.nframes--
			// Restore discipline: V returns to the caller's context.
			m.v = f.t
			if dst != opndNone {
				if m.retScalar {
					m.retScalar = false
					f.regs[dst].setU(m.retU)
				} else {
					if rv == nil {
						rv = &zeroValue
					}
					f.regs[dst].set(rv)
				}
			} else {
				m.retScalar = false
			}
			return next
		}
	}
	return func(m *Machine, f *frameV) int32 {
		if tick && !m.mtick() {
			return stepFault
		}
		if cap(m.args) < argN {
			m.args = make([]*Value, argN)
		}
		args := m.args[:argN]
		for i := range argRefs {
			v := m.fetch(f, &argRefs[i])
			if v == nil {
				return stepFault
			}
			args[i] = v
		}
		if arityBad {
			m.trap = fmt.Errorf("prog %s: call to %s with %d args, want %d",
				m.c.p.Name, calleeName, argN, nparams)
			return stepFault
		}
		if m.nframes > m.maxDepth {
			m.trap = fmt.Errorf("prog %s: call depth limit %d exceeded", m.c.p.Name, m.maxDepth)
			return stepFault
		}
		if instrumented {
			if mul3 {
				m.v = 3*f.t + konst
			} else {
				m.v = f.t + konst
			}
			m.encUpdates++
			m.cycles += encCyc
		}
		m.cycles += CycCall
		nf := m.pushFrame(fnIdx)
		for i := 0; i < argN; i++ {
			nf.regs[i].set(args[i])
		}
		if prologue {
			m.cycles += CycEncPrologue
		}
		rv, err := m.invoke(fnIdx, nf)
		if err != nil {
			m.trap = err
			return stepFault
		}
		m.nframes--
		// Restore discipline: V returns to the caller's context.
		m.v = f.t
		if dst != opndNone {
			if m.retScalar {
				m.retScalar = false
				f.regs[dst].setU(m.retU)
			} else {
				if rv == nil {
					rv = &zeroValue
				}
				f.regs[dst].set(rv)
			}
		} else {
			m.retScalar = false
		}
		return next
	}
}

// buildAlloc bakes one allocation/realloc site: the SiteUpdate (or
// explicit-CCID path) as integer arithmetic and the patch-verdict
// probe per backend shape, feeding the verdict inline cache
// (noteAlloc).
func (fc *fnCompiler) buildAlloc(ins *instr, tick bool, next int32) closStep {
	c := fc.c
	rec := &c.allocs[ins.aux]
	realloc := ins.op == opRealloc
	ptrRef := opref{idx: -1, k: &zeroValue}
	if realloc {
		ptrRef = fc.ref(rec.ptr)
	}
	sizeRef := fc.ref(rec.size)
	nRef := fc.ref(rec.n)
	alignRef := fc.ref(rec.align)
	hasCCID := rec.ccid != opndNone
	var ccidRef opref
	if hasCCID {
		ccidRef = fc.ref(rec.ccid)
	}
	instrumented := rec.upd.Instrumented
	mul3 := rec.upd.Mul3
	konst := rec.upd.Const
	encCyc := c.encCycles
	allocFn := rec.fn
	byFn := rec.byFn
	dst, icIdx := rec.dst, rec.ic
	probe := fc.shape.prober

	return func(m *Machine, f *frameV) int32 {
		if tick && !m.mtick() {
			return stepFault
		}
		// Every operand here is consumed as an integer (the allocator
		// interface takes uint64s), so the unboxed path applies even
		// under CheckUse shapes: the tree-walker performs no use-point
		// check on allocation operands either.
		var ptrU uint64
		if realloc {
			u, ok := m.fetchUint(f, &ptrRef)
			if !ok {
				return stepFault
			}
			ptrU = u
		}
		sizeU, ok := m.fetchUint(f, &sizeRef)
		if !ok {
			return stepFault
		}
		nU, ok := m.fetchUint(f, &nRef)
		if !ok {
			return stepFault
		}
		alignU, ok := m.fetchUint(f, &alignRef)
		if !ok {
			return stepFault
		}
		ccid := m.v
		if hasCCID {
			cv, ok := m.fetchUint(f, &ccidRef)
			if !ok {
				return stepFault
			}
			ccid = cv
			m.encUpdates++
			m.cycles += CycEncUpdatePCC
		} else if instrumented {
			if mul3 {
				ccid = 3*f.t + konst
			} else {
				ccid = f.t + konst
			}
			m.encUpdates++
			m.cycles += encCyc
		}
		m.allocs++
		m.allocsByFn[byFn]++
		var ptr uint64
		var aerr error
		if realloc {
			ptr, aerr = m.backend.Realloc(ccid, ptrU, sizeU)
		} else {
			ptr, aerr = m.backend.Alloc(allocFn, ccid, nU, sizeU, alignU)
		}
		if aerr != nil {
			m.trap = m.crash(aerr)
			return stepFault
		}
		f.regs[dst].setU(ptr)
		m.ics[icIdx].allocs++
		if probe {
			m.noteAlloc(rec, ccid)
		}
		return next
	}
}

// buildBinBr fuses a binary op into the conditional branch consuming
// its result — the loop-head superinstruction (e.g. `i < n` feeding
// the while branch): one dispatch instead of two per iteration.
func (fc *fnCompiler) buildBinBr(bin, br *instr, next int32) closStep {
	dst, bop := bin.dst, bin.bop
	a, b := fc.ref(bin.a), fc.ref(bin.b)
	tick1, tick2 := bin.tick, br.tick
	elseIdx := fc.stepAt(br.aux)
	cu := fc.shape.checkUse
	aConst, aku, aIdx := a.k != nil, a.ku, a.idx
	bConst, bku, bIdx := b.k != nil, b.ku, b.idx

	// gen is the materialized path: boxed or undefined operands,
	// shadow-plane propagation through setBin.
	gen := func(m *Machine, f *frameV) int32 {
		av := m.fetch(f, &a)
		if av == nil {
			return stepFault
		}
		bv := m.fetch(f, &b)
		if bv == nil {
			return stepFault
		}
		r, err := binScalar(bop, av.Uint(), bv.Uint())
		if err != nil {
			m.trap = err
			return stepFault
		}
		dreg := &f.regs[dst]
		dreg.setBin(r, av, bv)
		if tick2 && !m.mtick() {
			return stepFault
		}
		if cu {
			m.backend.CheckUse(dreg.val, UseControlFlow, m.v)
		}
		// setBin stored r as the scalar result, so branch on it directly.
		if dreg.val.Uint() == 0 {
			return elseIdx
		}
		return next
	}

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		var au, bu uint64
		if aConst {
			au = aku
		} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
			au = ra.u
		} else {
			return gen(m, f)
		}
		if bConst {
			bu = bku
		} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
			bu = rb.u
		} else {
			return gen(m, f)
		}
		r, err := binScalar(bop, au, bu)
		if err != nil {
			m.trap = err
			return stepFault
		}
		dreg := &f.regs[dst]
		dreg.setU(r)
		if tick2 && !m.mtick() {
			return stepFault
		}
		if cu {
			dreg.materialize()
			m.backend.CheckUse(dreg.val, UseControlFlow, m.v)
		}
		if r == 0 {
			return elseIdx
		}
		return next
	}
}

// buildBinJmp fuses a binary op into the unconditional jump following
// it — the loop-latch superinstruction (`i = i + 1` feeding the
// back-edge): one dispatch per iteration instead of two.
func (fc *fnCompiler) buildBinJmp(bin, jmp *instr) closStep {
	dst, bop := bin.dst, bin.bop
	a, b := fc.ref(bin.a), fc.ref(bin.b)
	tick1, tick2 := bin.tick, jmp.tick
	tgt := fc.stepAt(jmp.aux)
	aConst, aku, aIdx := a.k != nil, a.ku, a.idx
	bConst, bku, bIdx := b.k != nil, b.ku, b.idx

	gen := func(m *Machine, f *frameV) int32 {
		av := m.fetch(f, &a)
		if av == nil {
			return stepFault
		}
		bv := m.fetch(f, &b)
		if bv == nil {
			return stepFault
		}
		r, err := binScalar(bop, av.Uint(), bv.Uint())
		if err != nil {
			m.trap = err
			return stepFault
		}
		f.regs[dst].setBin(r, av, bv)
		if tick2 && !m.mtick() {
			return stepFault
		}
		return tgt
	}

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		var au, bu uint64
		if aConst {
			au = aku
		} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
			au = ra.u
		} else {
			return gen(m, f)
		}
		if bConst {
			bu = bku
		} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
			bu = rb.u
		} else {
			return gen(m, f)
		}
		r, err := binScalar(bop, au, bu)
		if err != nil {
			m.trap = err
			return stepFault
		}
		f.regs[dst].setU(r)
		if tick2 && !m.mtick() {
			return stepFault
		}
		return tgt
	}
}

// buildBinBin fuses two consecutive binary ops (chained arithmetic:
// the second may consume the first's destination) into one dispatch.
func (fc *fnCompiler) buildBinBin(b1, b2 *instr, next int32) closStep {
	dst1, bop1 := b1.dst, b1.bop
	a1, c1 := fc.ref(b1.a), fc.ref(b1.b)
	dst2, bop2 := b2.dst, b2.bop
	a2, c2 := fc.ref(b2.a), fc.ref(b2.b)
	tick1, tick2 := b1.tick, b2.tick
	a1Const, a1ku, a1Idx := a1.k != nil, a1.ku, a1.idx
	c1Const, c1ku, c1Idx := c1.k != nil, c1.ku, c1.idx
	a2Const, a2ku, a2Idx := a2.k != nil, a2.ku, a2.idx
	c2Const, c2ku, c2Idx := c2.k != nil, c2.ku, c2.idx

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		// First op: inline unboxed path, binInto for everything else.
		var au, bu uint64
		fast := true
		if a1Const {
			au = a1ku
		} else if ra := &f.regs[a1Idx]; ra.uok && ra.def {
			au = ra.u
		} else {
			fast = false
		}
		if fast {
			if c1Const {
				bu = c1ku
			} else if rb := &f.regs[c1Idx]; rb.uok && rb.def {
				bu = rb.u
			} else {
				fast = false
			}
		}
		if fast {
			r, err := binScalar(bop1, au, bu)
			if err != nil {
				m.trap = err
				return stepFault
			}
			f.regs[dst1].setU(r)
		} else if !binInto(m, f, bop1, &a1, &c1, dst1) {
			return stepFault
		}
		if tick2 && !m.mtick() {
			return stepFault
		}
		// Second op (may consume dst1, which the fast path left unboxed).
		fast = true
		if a2Const {
			au = a2ku
		} else if ra := &f.regs[a2Idx]; ra.uok && ra.def {
			au = ra.u
		} else {
			fast = false
		}
		if fast {
			if c2Const {
				bu = c2ku
			} else if rb := &f.regs[c2Idx]; rb.uok && rb.def {
				bu = rb.u
			} else {
				fast = false
			}
		}
		if fast {
			r, err := binScalar(bop2, au, bu)
			if err != nil {
				m.trap = err
				return stepFault
			}
			f.regs[dst2].setU(r)
			return next
		}
		if !binInto(m, f, bop2, &a2, &c2, dst2) {
			return stepFault
		}
		return next
	}
}

// binInto executes one binary op into dst, preferring the unboxed
// path and falling back to the materialized setBin path when an
// operand carries shadow planes or an odd width. false means a fault
// (undefined variable or arithmetic error) is staged in trap.
func binInto(m *Machine, f *frameV, bop BinOp, a, b *opref, dst int32) bool {
	if au, s := m.fetchScalar(f, a); s == scalarOK {
		bu, s2 := m.fetchScalar(f, b)
		if s2 == scalarOK {
			r, err := binScalar(bop, au, bu)
			if err != nil {
				m.trap = err
				return false
			}
			f.regs[dst].setU(r)
			return true
		}
		if s2 == scalarFault {
			return false
		}
	} else if s == scalarFault {
		return false
	}
	av := m.fetch(f, a)
	if av == nil {
		return false
	}
	bv := m.fetch(f, b)
	if bv == nil {
		return false
	}
	r, err := binScalar(bop, av.Uint(), bv.Uint())
	if err != nil {
		m.trap = err
		return false
	}
	f.regs[dst].setBin(r, av, bv)
	return true
}
