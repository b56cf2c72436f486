package compiled

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// suiteCase is one test case lowered onto a Program together with everything
// Steps 1–4 derive from the specification alone: the compiled inputs, the
// specification's expected observations (compiled and decoded), the symptom
// transition of every step, the first-execution order of transitions that
// conflict-set prefixes are cut from, and the fire index and configuration
// snapshots that let a hypothesis replay skip every step its overlay cannot
// change (see Engine.explainsOverlay).
type suiteCase struct {
	inputs []cin
	// badInput is set when an input failed to compile (out-of-range port);
	// Explains then answers false, exactly like the interpreted per-mutant
	// run that fails on the same input.
	badInput bool
	// simErr is the error of simulating the case on the specification,
	// wrapped like cfsm.System.RunTrace's ("test case …, step …: …"). Any
	// analysis over the case reproduces the interpreted Analyze failure.
	simErr error
	// expC/exp are the specification's expected observation sequence in
	// compiled and decoded form (Step 1). exp is immutable, aliased into
	// every Analysis.Expected built from this suite, and always non-nil
	// (matching the interpreted simulator, which returns an empty slice for
	// an empty test case).
	expC []cobs
	exp  []cfsm.Observation
	// symTrans[j] is the transition that produced the observable output of
	// step j — the last external-output transition of the executed chain —
	// or -1 when the step fired none (Definition 4's symptom transition).
	symTrans []int32
	// firstExec lists transition indices in order of first execution across
	// the case; firstStep[k] is the 0-based step at which firstExec[k] first
	// ran. firstStep is non-decreasing, so the Step-4 conflict set of a
	// first symptom at step j is exactly the prefix of firstExec whose
	// firstStep entries are <= j.
	firstExec []int32
	firstStep []int32
	// fireAt[fireOff[t]:fireOff[t+1]] are the ascending 0-based steps at
	// which transition t fires in the specification run (compressed sparse
	// rows: one offset array and one step array per case). Only complete
	// runs (snap) carry the index.
	fireOff []int32
	fireAt  []int32
	// cfgs is the specification run's configuration before each step, flat
	// with one len(p.machines) stride per step; snap marks it complete (the
	// whole case simulated without error). With the fire index it lets a
	// replay under an overlay on t start at t's first firing and jump over
	// every stretch in which the overlaid run is back in the specification's
	// configuration and t does not fire.
	cfgs []int32
	snap bool
}

// fires returns the ascending steps at which transition t fires in the
// specification run of this case.
func (c *suiteCase) fires(t int32) []int32 {
	return c.fireAt[c.fireOff[t]:c.fireOff[t+1]]
}

// conflictPrefix returns how many firstExec entries belong to the conflict
// set of a first symptom at step stop (Step 4: transitions executed up to and
// including the symptom's step).
func (c *suiteCase) conflictPrefix(stop int) int {
	k := len(c.firstExec)
	for k > 0 && c.firstStep[k-1] > int32(stop) {
		k--
	}
	return k
}

// Suite is a test suite compiled once against a Program. It precomputes the
// per-case data above, so a sweep lowers the suite a single time and shares
// the immutable result across every worker engine and every mutant, instead
// of re-simulating the specification per mutant (the interpreted Steps 1–3)
// and re-compiling the inputs per engine.
//
// A Suite is immutable after NewSuite and safe to share across goroutines.
type Suite struct {
	p     *Program
	key   *cfsm.TestCase // identity of the source slice, for cache checks
	n     int
	cases []suiteCase
	// expected aliases the per-case exp slices in suite order, ready to be
	// used as an Analysis.Expected.
	expected [][]cfsm.Observation
	// refs[t] is p.Ref(t), resolved once per suite: every analysis over the
	// suite reports its symptoms, conflict sets and candidates as Refs.
	refs []cfsm.Ref
}

// NewSuite lowers a test suite onto the program. Input-compile and
// specification-simulation failures are recorded per case, not returned: the
// analysis that touches a failing case reproduces the interpreted error.
func NewSuite(p *Program, suite []cfsm.TestCase) *Suite {
	s := &Suite{p: p, n: len(suite), cases: make([]suiteCase, len(suite)),
		expected: make([][]cfsm.Observation, len(suite)),
		refs:     make([]cfsm.Ref, len(p.trans))}
	for t := range s.refs {
		s.refs[t] = p.Ref(int32(t))
	}
	if len(suite) > 0 {
		s.key = &suite[0]
	}
	r := p.NewRunner()
	defer r.Flush()
	var fired []int32 // scratch: (transition, step) pairs of one case
	for i, tc := range suite {
		s.cases[i], fired = compileSuiteCase(p, r, tc, fired[:0])
		s.expected[i] = s.cases[i].exp
	}
	return s
}

// Matches reports whether the suite was compiled from exactly this slice
// (identity, not content — the same convention as the engine's caches).
func (s *Suite) Matches(suite []cfsm.TestCase) bool {
	if s == nil || s.n != len(suite) {
		return false
	}
	return len(suite) == 0 || s.key == &suite[0]
}

// compileSuiteCase lowers one test case and simulates it on the
// specification, recording expected observations, symptom transitions, the
// first-execution order and the fire index. fired is scratch for the
// (transition, step) firing pairs, returned for reuse by the next case.
func compileSuiteCase(p *Program, r *Runner, tc cfsm.TestCase, fired []int32) (suiteCase, []int32) {
	n := len(tc.Inputs)
	c := suiteCase{
		inputs:   make([]cin, 0, n),
		expC:     make([]cobs, 0, n),
		exp:      make([]cfsm.Observation, 0, n),
		symTrans: make([]int32, 0, n),
		cfgs:     make([]int32, 0, n*len(p.machines)),
	}
	r.SetOverlay(None())
	seen := NewBits(len(p.trans))
	record := func(idx int32, step int) {
		if idx < 0 {
			return
		}
		fired = append(fired, idx, int32(step))
		if !seen.Has(idx) {
			seen.Set(idx)
			c.firstExec = append(c.firstExec, idx)
			c.firstStep = append(c.firstStep, int32(step))
		}
	}
	for i, in := range tc.Inputs {
		ci, err := p.compileInput(in)
		if err != nil {
			c.badInput = true
			if c.simErr == nil {
				c.simErr = fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
			}
			return c, fired
		}
		c.inputs = append(c.inputs, ci)
		if c.simErr != nil {
			// The specification simulation already failed; keep compiling
			// inputs so Explains can still replay the full case on mutants.
			continue
		}
		c.cfgs = append(c.cfgs, r.cfg...)
		o, e1, e2, err := r.step(ci)
		if err != nil {
			c.simErr = fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
			continue
		}
		c.expC = append(c.expC, o)
		c.exp = append(c.exp, p.decodeObs(o))
		record(e1, i)
		record(e2, i)
		// The symptom transition is the last external transition of the
		// executed chain: e2 when present (always external — a validated
		// system forbids chained internal outputs), else an external e1.
		sym := int32(-1)
		switch {
		case e2 >= 0:
			sym = e2
		case e1 >= 0 && !p.trans[e1].Internal():
			sym = e1
		}
		c.symTrans = append(c.symTrans, sym)
	}
	c.snap = c.simErr == nil
	if c.snap {
		c.fireOff, c.fireAt = fireIndex(len(p.trans), fired)
	}
	return c, fired
}

// fireIndex builds the CSR fire index from (transition, step) pairs listed
// in step order: a counting pass sizes each transition's row, a second pass
// fills the rows, keeping every row ascending.
func fireIndex(numTrans int, fired []int32) (off, at []int32) {
	off = make([]int32, numTrans+1)
	for k := 0; k < len(fired); k += 2 {
		off[fired[k]+1]++
	}
	for t := 0; t < numTrans; t++ {
		off[t+1] += off[t]
	}
	at = make([]int32, len(fired)/2)
	next := off[:numTrans] // fill cursor per row, consumed back into off
	for k := 0; k < len(fired); k += 2 {
		t := fired[k]
		at[next[t]] = fired[k+1]
		next[t]++
	}
	// The fill advanced every row start to the next row's start; shift back.
	copy(off[1:], off[:numTrans])
	off[0] = 0
	return off, at
}
