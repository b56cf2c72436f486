package compiled

import (
	"fmt"
	"slices"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

// Engine executes the diagnosis hot paths against a compiled Program,
// implementing core.Engine. Verdict-level behaviour is byte-for-byte
// identical to the interpreted engine (core.NewSystemEngine); only the
// representation differs — dense tables, one-cell overlays and packed
// integer configurations instead of string-keyed maps and system clones.
//
// An Engine is NOT safe for concurrent use: every exported method may read
// and write the scratch fields below (the runner's configuration buffer, the
// suite/observation caches, the Ref memo, the analysis scratch), none of
// which are synchronized. The concurrency contract is
// one-goroutine-per-Engine: give each worker its own Engine over a shared,
// immutable Program (EngineFor is cheap), the sharing the sweep's worker
// pool and the per-diagnosis default engines implement and
// TestEngineSharingAcrossWorkers exercises under -race. Search scratch is
// the exception: it is pooled on the Program (sync.Pool), so short-lived
// engines do not each allocate a visited array.
type Engine struct {
	p *Program
	r *Runner // scratch runner for explains and variant runs

	// Compiled-suite cache: sweeps call Explains (and AnalyzeInto) with the
	// same base suite for every hypothesis of every mutant. SetSuite installs
	// a suite compiled once per sweep and shared — it is immutable — across
	// every worker engine; otherwise suiteFor compiles lazily, keyed by
	// slice identity.
	csuite   *Suite
	obsKey   *[]cfsm.Observation
	obsLen   int
	observed [][]cobs
	inBuf    []cin

	// Divergence table (see divergence): div[i][j] is the first step >= j of
	// case i at which the compiled observation differs from the
	// specification's. divFor is the suite the table was built for; nil
	// marks it stale. compileObserved lowers new observations into the same
	// reused buffers, so it must clear divFor whenever it recompiles.
	div    [][]int32
	divBuf []int32
	divFor *Suite

	// Analysis scratch (see analysis.go), reused across AnalyzeInto calls.
	anInter Bits
	anCur   Bits
	anITC   [][]int32
	anFTCtr [][]int32
	anFTCco [][]int32

	// One-entry memo for the fault.Ref→transition-index lookup
	// (Program.TransIndex): sweep callers probe every fault of one transition
	// consecutively, and hashing the name shows up in sweep profiles. Unsynchronized
	// like the rest of the scratch state: safe only under the
	// one-goroutine-per-Engine contract above.
	memoRef   cfsm.Ref
	memoIdx   int32
	memoFound bool
	memoSet   bool
}

// overlayFor is Program.OverlayFor with the Ref lookup memoised (see the
// memo fields above). Behaviour is identical; the differential tests pin it.
func (e *Engine) overlayFor(f fault.Fault) (Overlay, bool) {
	if !e.memoSet || f.Ref != e.memoRef {
		e.memoIdx, e.memoFound = e.p.TransIndex(f.Ref)
		e.memoRef = f.Ref
		e.memoSet = true
	}
	if !e.memoFound {
		return Overlay{}, false
	}
	return e.p.overlayAt(e.memoIdx, f)
}

var (
	_ core.Engine                  = (*Engine)(nil)
	_ core.ProjectionDistinguisher = (*Engine)(nil)
)

// The compiled engine is core's default: every diagnosis without an
// explicit core.WithEngine runs on an engine over the specification's
// memoised Program.
func init() { core.RegisterDefaultEngine(defaultEngine) }

// defaultEngine is the registered core default: a fresh engine over the
// memoised program of spec, or nil — selecting the interpreted reference —
// when the configuration space does not pack.
func defaultEngine(spec *cfsm.System) core.Engine {
	e, err := EngineFor(ProgramFor(spec))
	if err != nil {
		return nil
	}
	return e
}

// ProgramFor returns the compiled program of sys, compiling it on first use
// and memoising it on the system (cfsm.System.Memo): the memo is race-free,
// lives exactly as long as the system, and makes every later diagnosis of
// the same *cfsm.System — a /v1/models registry entry, a sweep's
// specification — skip compilation.
func ProgramFor(sys *cfsm.System) *Program {
	return sys.Memo(func(s *cfsm.System) any {
		p, _ := Compile(s) // fails only for a nil system
		return p
	}).(*Program)
}

// Cached returns the program memoised on sys, or nil when none has been
// compiled for it yet. It never compiles.
func Cached(sys *cfsm.System) *Program {
	p, _ := sys.Memoised().(*Program)
	return p
}

// NewEngine returns an engine over the memoised program of sys
// (ProgramFor). It fails when the global configuration space cannot be
// packed into the integer keys the searches require (see
// Program.Packable); callers should fall back to the interpreted engine in
// that case.
func NewEngine(sys *cfsm.System) (*Engine, error) {
	if sys == nil {
		return nil, fmt.Errorf("compiled: nil system")
	}
	return EngineFor(ProgramFor(sys))
}

// EngineFor returns an engine over an already-compiled program, sharing the
// program with any number of sibling engines.
func EngineFor(p *Program) (*Engine, error) {
	if !p.Packable() {
		return nil, fmt.Errorf("compiled: global state space of %d machines exceeds %d packed configurations",
			p.N(), maxPackedConfigs)
	}
	return &Engine{p: p, r: p.NewRunner()}, nil
}

// Program returns the engine's compiled program.
func (e *Engine) Program() *Program { return e.p }

// SetSuite installs a suite compiled once (NewSuite) for reuse by Explains
// and AnalyzeInto. A sweep compiles the suite a single time and installs it
// on every worker engine; the Suite is immutable, so the sharing is safe.
// The suite must have been compiled against this engine's program.
func (e *Engine) SetSuite(s *Suite) {
	if s != nil && s.p != e.p {
		panic("compiled: SetSuite with a suite of a different program")
	}
	e.csuite = s
}

// suiteFor resolves the compiled form of a suite: the installed/cached one
// when it matches by slice identity, otherwise a fresh compilation (cached
// for the next call — one analysis probes the same suite per hypothesis).
func (e *Engine) suiteFor(suite []cfsm.TestCase) *Suite {
	if e.csuite.Matches(suite) {
		return e.csuite
	}
	e.csuite = NewSuite(e.p, suite)
	return e.csuite
}

// compileObserved lowers the observation sequences, cached by slice
// identity: one analysis calls Explains once per hypothesis with the same
// observations.
func (e *Engine) compileObserved(observed [][]cfsm.Observation) {
	if len(observed) > 0 && e.obsKey == &observed[0] && e.obsLen == len(observed) {
		return
	}
	for len(e.observed) < len(observed) {
		e.observed = append(e.observed, nil)
	}
	e.observed = e.observed[:len(observed)]
	for i, obs := range observed {
		e.observed[i] = e.p.compileObs(obs, e.observed[i])
	}
	e.divFor = nil
	if len(observed) > 0 {
		e.obsKey = &observed[0]
	} else {
		e.obsKey = nil
	}
	e.obsLen = len(observed)
}

// Explains reports whether injecting f makes every suite case reproduce the
// matching observation sequence — the compiled form of the interpreted
// apply-and-resimulate check, with the per-mutant system clone replaced by
// an overlay and an early exit on the first divergent observation (the
// comparison is deterministic, so the verdict is unchanged).
func (e *Engine) Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool {
	ov, ok := e.overlayFor(f)
	if !ok {
		return false
	}
	s := e.suiteFor(suite)
	e.compileObserved(observed)
	return e.explainsOverlay(s, e.observed, ov)
}

// explainsOverlay is Explains after fault lowering: it replays the compiled
// suite under the overlay and compares against the compiled observations.
// The compiled analysis (AnalyzeInto) calls it directly with overlays it
// synthesizes, skipping the per-hypothesis fault construction and validation.
//
// A single-cell overlay on transition t changes a step only when t fires in
// it, and never changes whether t fires (t's From/Input guard is not
// overlaid). So whenever the overlaid run is in the specification run's
// configuration before step j (cfgs), it repeats the specification run step
// for step until t next fires at step k (the suite's fire index): steps j..k-1
// are decided by the divergence table alone, and the simulation resumes at k
// from the snapshot cfgs[k]. The replay therefore simulates only t's firings
// and the stretches after them in which the configuration has not yet
// re-converged; a case in which t never fires reduces to one table lookup.
// Cases without a complete specification run (snap unset) and the empty
// overlay replay every step.
func (e *Engine) explainsOverlay(s *Suite, observed [][]cobs, ov Overlay) bool {
	r := e.r
	r.ov = ov
	defer r.Flush()
	div := e.divergence(s, observed)
	for i := range s.cases {
		c := &s.cases[i]
		if c.badInput {
			return false
		}
		want := observed[i]
		if len(want) != len(c.inputs) {
			return false
		}
		var ok bool
		if ov.t >= 0 && c.snap {
			ok = e.replayFrom(c, want, div[i], ov.t)
		} else {
			ok = e.replay(c, want)
		}
		if !ok {
			return false
		}
	}
	return true
}

// replay simulates every step of the case from the initial configuration
// and compares each observation.
func (e *Engine) replay(c *suiteCase, want []cobs) bool {
	r := e.r
	r.restart()
	for j, in := range c.inputs {
		o, _, _, err := r.step(in)
		if err != nil || o != want[j] {
			return false
		}
	}
	return true
}

// replayFrom is the cut-off replay of explainsOverlay for an overlay on
// transition t over a case with a complete specification run: it simulates
// from each firing of t until the configuration re-converges with the
// specification's, and answers every other stretch from the divergence
// table d.
func (e *Engine) replayFrom(c *suiteCase, want []cobs, d []int32, t int32) bool {
	r := e.r
	n := len(r.cfg)
	fires := c.fires(t)
	steps := len(c.inputs)
	j := 0 // the overlaid run is in the specification's configuration before step j
	for {
		for len(fires) > 0 && int(fires[0]) < j {
			fires = fires[1:]
		}
		if len(fires) == 0 {
			return int(d[j]) == steps
		}
		k := int(fires[0])
		if int(d[j]) < k {
			return false
		}
		copy(r.cfg, c.cfgs[k*n:(k+1)*n])
		for j = k; ; {
			o, _, _, err := r.step(c.inputs[j])
			if err != nil || o != want[j] {
				return false
			}
			j++
			if j == steps {
				return true
			}
			if slices.Equal(r.cfg, c.cfgs[j*n:(j+1)*n]) {
				break
			}
		}
	}
}

// divergence returns the divergence table of the suite against the engine's
// compiled observations (observed is e.observed), rebuilding it only when
// the suite or the observations changed since the last build (see the div
// fields). For each case of the suite the row has one entry per expected
// observation plus a final sentinel equal to the case length.
func (e *Engine) divergence(s *Suite, observed [][]cobs) [][]int32 {
	if e.divFor == s {
		return e.div
	}
	total := 0
	for i := range s.cases {
		total += len(s.cases[i].expC) + 1
	}
	if cap(e.divBuf) < total {
		e.divBuf = make([]int32, total)
	}
	buf := e.divBuf[:total]
	e.div = e.div[:0]
	for i := range s.cases {
		c := &s.cases[i]
		want := observed[i]
		m := len(c.expC)
		row := buf[: m+1 : m+1]
		buf = buf[m+1:]
		next := int32(m)
		row[m] = next
		for j := m - 1; j >= 0; j-- {
			if j >= len(want) || c.expC[j] != want[j] {
				next = int32(j)
			}
			row[j] = next
		}
		e.div = append(e.div, row)
	}
	e.divFor = s
	return e.div
}

// variant is a compiled behavioural hypothesis: the program under one
// overlay.
type variant struct {
	e  *Engine
	ov Overlay
}

// NewVariant returns the executable handle for the specification rewired
// with f (or the specification itself for nil). Validation failures return
// the interpreted fault.Validate error so callers see identical messages.
func (e *Engine) NewVariant(f *fault.Fault) (core.Variant, error) {
	if f == nil {
		return variant{e: e, ov: None()}, nil
	}
	ov, ok := e.overlayFor(*f)
	if !ok {
		if err := f.Validate(e.p.src); err != nil {
			return nil, err
		}
		// An overlay/Validate disagreement would be a compiler defect; the
		// differential tests pin this branch closed.
		return nil, fmt.Errorf("compiled: fault %s has no overlay", f.Describe(e.p.src))
	}
	return variant{e: e, ov: ov}, nil
}

// Run executes a test case for the variant from the initial configuration.
func (v variant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	r := v.e.r
	r.ov = v.ov
	r.restart()
	return r.Run(tc)
}

// RunInputs executes the inputs from the initial configuration and returns
// the reached configuration packed as the engine's Position.
func (v variant) RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, core.Position, error) {
	e := v.e
	cis, err := e.p.compileInputs(inputs, e.inBuf)
	if err != nil {
		return nil, nil, err
	}
	e.inBuf = cis
	r := e.r
	r.ov = v.ov
	r.restart()
	defer r.Flush()
	var obs []cfsm.Observation
	for _, ci := range cis {
		o, _, _, err := r.step(ci)
		if err != nil {
			return nil, nil, err
		}
		obs = append(obs, e.p.decodeObs(o))
	}
	return obs, e.p.pack(r.cfg), nil
}

// TransferToState finds a shortest avoid-respecting input sequence from the
// initial configuration to any configuration with the given machine in the
// target state (testgen.TransferToState over the specification).
func (e *Engine) TransferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	goal := int32(-1)
	if id, ok := e.p.machines[machine].stateID(target); ok {
		goal = id
	}
	return e.transferSearch(machine, goal, avoid)
}

// Distinguish finds a shortest avoid-respecting input sequence separating
// the two variant positions (testgen.Distinguish over the overlaid
// programs). Both positions must come from this engine's variants.
func (e *Engine) Distinguish(a, b core.VariantPos, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	va, okA := a.V.(variant)
	vb, okB := b.V.(variant)
	pa, okPA := a.Pos.(uint64)
	pb, okPB := b.Pos.(uint64)
	if !okA || !okB || !okPA || !okPB {
		return nil, false
	}
	return e.distinguishSearch(va.ov, pa, vb.ov, pb, avoid)
}

// DistinguishProjected finds a shortest avoid-respecting input sequence
// whose observation difference between the two variant positions is visible
// to some local observer (testgen.ProjectionDistinguish over the overlaid
// programs), implementing core.ProjectionDistinguisher. globalOnly reports
// that only silence-only differences were found.
func (e *Engine) DistinguishProjected(a, b core.VariantPos, avoid testgen.RefSet) (seq []cfsm.Input, ok, globalOnly bool) {
	va, okA := a.V.(variant)
	vb, okB := b.V.(variant)
	pa, okPA := a.Pos.(uint64)
	pb, okPB := b.Pos.(uint64)
	if !okA || !okB || !okPA || !okPB {
		return nil, false, false
	}
	return e.pairSearch(va.ov, pa, vb.ov, pb, avoid, true)
}

// FaultEquivalentToSpec reports whether the mutant realized by f is
// observationally equivalent to the specification — the compiled form of
// testgen.SystemsEquivalent(spec, mutant). Faults with no legal overlay are
// not equivalent (they realize no mutant).
func (e *Engine) FaultEquivalentToSpec(f fault.Fault) bool {
	ov, ok := e.overlayFor(f)
	if !ok {
		return false
	}
	_, distinguishable := e.distinguishSearch(None(), e.p.initialP, ov, e.p.initialP, nil)
	return !distinguishable
}

// FaultsEquivalent reports whether the mutants realized by two faults are
// observationally equivalent, the compiled form of the sweep's
// diagnosed-equivalence check.
func (e *Engine) FaultsEquivalent(a, b fault.Fault) bool {
	ovA, okA := e.overlayFor(a)
	ovB, okB := e.overlayFor(b)
	if !okA || !okB {
		return false
	}
	_, distinguishable := e.distinguishSearch(ovA, e.p.initialP, ovB, e.p.initialP, nil)
	return !distinguishable
}
