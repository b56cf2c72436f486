package compiled

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
)

// The compiled engine analyzes directly: core.Analyze delegates Steps 1–5B
// to AnalyzeInto instead of the interpreted path.
var _ core.AnalyzerEngine = (*Engine)(nil)

// AnalyzeInto runs Steps 1–5B of the diagnosis on the compiled program:
// symptom extraction against the precompiled expected observations, conflict
// sets as first-execution prefixes, the Step-5A intersection as a bitset AND
// over transition indices, and hypothesis verification through overlays
// synthesized without per-hypothesis fault construction. The exported
// Analysis fields are materialized in exactly the interpreted order and
// shape (the AnalyzerEngine contract); the differential tests pin the
// equality byte-for-byte.
//
// It declines (done=false) when the Analysis targets a different
// specification than the engine's program.
func (e *Engine) AnalyzeInto(a *core.Analysis) (bool, error) {
	p := e.p
	if p.src != a.Spec {
		return false, nil
	}
	s := e.suiteFor(a.Suite)

	// Step 1: expected outputs, reproducing the interpreted error order
	// (simulation failure before the observation-count check, in case order).
	for i := range s.cases {
		c := &s.cases[i]
		if c.simErr != nil {
			return true, fmt.Errorf("core: simulate %s on specification: %w", a.Suite[i].Name, c.simErr)
		}
		if len(a.Observed[i]) != len(c.exp) {
			return true, fmt.Errorf("core: %s: %d observations for %d inputs", a.Suite[i].Name, len(a.Observed[i]), len(c.exp))
		}
	}
	a.Expected = s.expected
	e.compileObserved(a.Observed)
	observed := e.observed

	// Steps 2–3: symptoms, first symptom per case, unique symptom
	// transition and flag, on compiled observation equality (foreign
	// observed symbols lower to the -1 sentinel, which matches no expected
	// alphabet symbol — exactly the interpreted string inequality).
	ustKnown := false
	ustUnique := true
	ustIdx := int32(-1)
	var uso cfsm.Symbol
	var symCases, stops []int
	a.FirstSymptom = make(map[int]int, len(s.cases))
	for i := range s.cases {
		c := &s.cases[i]
		obsC := observed[i]
		firstSeen := false
		for j := range c.expC {
			if c.expC[j] == obsC[j] {
				continue
			}
			sym := core.Symptom{
				Case:     i,
				Step:     j,
				Expected: c.exp[j],
				Observed: a.Observed[i][j],
			}
			tIdx := c.symTrans[j]
			if tIdx >= 0 {
				r := s.refs[tIdx]
				sym.Transition = &r
			}
			a.Symptoms = append(a.Symptoms, sym)
			if !firstSeen {
				firstSeen = true
				a.FirstSymptom[i] = j
				symCases = append(symCases, i)
				stops = append(stops, j)
				if !ustKnown {
					ustKnown = true
					ustIdx = tIdx
					uso = sym.Observed.Sym
				} else if ustIdx < 0 || tIdx < 0 || ustIdx != tIdx {
					ustUnique = false
				}
			} else {
				a.Flag = true
			}
		}
	}
	if ustKnown && ustUnique && ustIdx >= 0 {
		r := s.refs[ustIdx]
		a.UST = &r
		a.USO = uso
	} else {
		ustIdx = -1
	}
	if len(a.Symptoms) == 0 {
		return true, nil
	}

	// Step 4: conflict sets — the precomputed first-execution prefix of each
	// symptomatic case, bucketed per machine — and their running bitset
	// intersection for Step 5A.
	n := p.N()
	inter, cur := e.analysisBits()
	inter.Reset()
	a.Conflicts = make(map[int]core.MachineSets, len(symCases))
	for k, i := range symCases {
		c := &s.cases[i]
		prefix := c.conflictPrefix(stops[k])
		sets := make(core.MachineSets, n)
		for x := 0; x < prefix; x++ {
			idx := c.firstExec[x]
			sets[p.trans[idx].Machine] = append(sets[p.trans[idx].Machine], s.refs[idx])
		}
		a.Conflicts[i] = sets
		if k == 0 {
			for x := 0; x < prefix; x++ {
				inter.Set(c.firstExec[x])
			}
		} else {
			cur.Reset()
			for x := 0; x < prefix; x++ {
				cur.Set(c.firstExec[x])
			}
			inter.And(cur)
		}
	}

	// Step 5A: materialize the intersection in the first symptomatic case's
	// conflict order (the interpreted tie-break), kept as indices for 5B.
	a.ITC = make(core.MachineSets, n)
	e.anITC = scratchSets(e.anITC, n)
	c0 := &s.cases[symCases[0]]
	for x, prefix0 := 0, c0.conflictPrefix(stops[0]); x < prefix0; x++ {
		idx := c0.firstExec[x]
		if !inter.Has(idx) {
			continue
		}
		m := p.trans[idx].Machine
		a.ITC[m] = append(a.ITC[m], s.refs[idx])
		e.anITC[m] = append(e.anITC[m], idx)
	}

	// Step 5B, split: the unique symptom transition forms the ustset; every
	// other ITC member is a transfer candidate, internal ones additionally
	// output candidates.
	a.FTCtr = make(core.MachineSets, n)
	a.FTCco = make(core.MachineSets, n)
	e.anFTCtr = scratchSets(e.anFTCtr, n)
	e.anFTCco = scratchSets(e.anFTCco, n)
	for m := 0; m < n; m++ {
		for _, idx := range e.anITC[m] {
			if idx == ustIdx {
				a.UstSet = append(a.UstSet, s.refs[idx])
				continue
			}
			a.FTCtr[m] = append(a.FTCtr[m], s.refs[idx])
			e.anFTCtr[m] = append(e.anFTCtr[m], idx)
			if p.trans[idx].Internal() {
				a.FTCco[m] = append(a.FTCco[m], s.refs[idx])
				e.anFTCco[m] = append(e.anFTCco[m], idx)
			}
		}
	}

	// Step 5B, verify: findendingstates over FTCtr and the ust (the DESIGN
	// §3 amendment), ustprocessing, and inttransproc over FTCco. Map entries
	// are assigned for every candidate — nil when no hypothesis survives —
	// matching the interpreted entry-presence semantics.
	nTr, nCo := len(a.UstSet), 0
	for m := 0; m < n; m++ {
		nTr += len(e.anFTCtr[m])
		nCo += len(e.anFTCco[m])
	}
	a.EndStates = make(map[cfsm.Ref][]cfsm.State, nTr)
	if a.Flag {
		a.StatOut = make(map[cfsm.Ref][]core.StateOutput, nCo+len(a.UstSet))
	} else {
		a.Outputs = make(map[cfsm.Ref][]cfsm.Symbol, nCo+len(a.UstSet))
	}
	for m := 0; m < n; m++ {
		for _, idx := range e.anFTCtr[m] {
			a.EndStates[s.refs[idx]] = e.endStates(s, observed, idx)
		}
	}
	if len(a.UstSet) > 0 {
		r := a.UstSet[0]
		a.EndStates[r] = e.endStates(s, observed, ustIdx)
		if a.Flag {
			a.StatOut[r] = e.ustStatOut(s, observed, ustIdx, uso)
		} else {
			a.Outputs[r] = e.ustOutputs(s, observed, ustIdx, uso)
		}
	}
	for m := 0; m < n; m++ {
		for _, idx := range e.anFTCco[m] {
			r := s.refs[idx]
			if a.Flag {
				a.StatOut[r] = e.coStatOut(s, observed, idx)
			} else {
				a.Outputs[r] = e.coOutputs(s, observed, idx)
			}
		}
	}
	return true, nil
}

// analysisBits returns the engine's two transition-indexed bitset scratch
// buffers, allocated on first use.
func (e *Engine) analysisBits() (inter, cur Bits) {
	if e.anInter == nil {
		e.anInter = NewBits(len(e.p.trans))
		e.anCur = NewBits(len(e.p.trans))
	}
	return e.anInter, e.anCur
}

// scratchSets resizes a per-machine index scratch to n empty lists, reusing
// the backing arrays.
func scratchSets(buf [][]int32, n int) [][]int32 {
	if cap(buf) < n {
		buf = make([][]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// endStates computes EndStates(T_k) — the states s ≠ NextState(T_k) whose
// pure transfer hypothesis explains all observations — by overlaying the
// transition's next state directly (state-ID order equals the interpreted
// sorted States() order).
func (e *Engine) endStates(s *Suite, observed [][]cobs, idx int32) []cfsm.State {
	p := e.p
	t := p.trans[idx]
	mp := &p.machines[t.Machine]
	var out []cfsm.State
	for sid := int32(0); sid < mp.numStates; sid++ {
		if sid == t.To {
			continue
		}
		if e.explainsOverlay(s, observed, Overlay{t: idx, output: t.Output, to: sid, dest: t.Dest}) {
			out = append(out, mp.states[sid])
		}
	}
	return out
}

// ustOutputs computes outputs(ust) for the single candidate faulty output
// uso (the observed unique symptom output). The interpreted skip and
// validation rules apply: ε, the empty symbol, the specified output and
// outputs foreign to the class alphabet survive nothing.
func (e *Engine) ustOutputs(s *Suite, observed [][]cobs, idx int32, uso cfsm.Symbol) []cfsm.Symbol {
	p := e.p
	t := p.trans[idx]
	oid, ok := e.legalAltOutput(idx, uso)
	if !ok {
		return nil
	}
	if e.explainsOverlay(s, observed, Overlay{t: idx, output: oid, to: t.To, dest: t.Dest}) {
		return []cfsm.Symbol{p.syms[oid]}
	}
	return nil
}

// ustStatOut computes statout(ust) for the single candidate faulty output
// uso: couples (s, uso) over every state of the machine, the s = NextState
// couple degenerating to the pure output hypothesis (same overlay).
func (e *Engine) ustStatOut(s *Suite, observed [][]cobs, idx int32, uso cfsm.Symbol) []core.StateOutput {
	p := e.p
	t := p.trans[idx]
	oid, ok := e.legalAltOutput(idx, uso)
	if !ok {
		return nil
	}
	mp := &p.machines[t.Machine]
	var out []core.StateOutput
	for sid := int32(0); sid < mp.numStates; sid++ {
		if e.explainsOverlay(s, observed, Overlay{t: idx, output: oid, to: sid, dest: t.Dest}) {
			out = append(out, core.StateOutput{State: mp.states[sid], Output: p.syms[oid]})
		}
	}
	return out
}

// legalAltOutput resolves a candidate faulty output against the interpreted
// skip rules (ε, empty, the specified output) and the transition's class
// alphabet; ok=false means the hypothesis space is empty.
func (e *Engine) legalAltOutput(idx int32, o cfsm.Symbol) (int32, bool) {
	if o == cfsm.Epsilon || o == "" {
		return -1, false
	}
	p := e.p
	t := p.trans[idx]
	oid := p.symID(o)
	if oid < 0 || oid == t.Output {
		return -1, false
	}
	for _, alt := range p.altOuts(idx) {
		if alt == oid {
			return oid, true
		}
	}
	return -1, false
}

// coOutputs computes outputs(T_k) for an internal-output candidate over its
// full class alphabet (the precompiled altOuts, in the interpreted
// AlternativeOutputs order).
func (e *Engine) coOutputs(s *Suite, observed [][]cobs, idx int32) []cfsm.Symbol {
	p := e.p
	t := p.trans[idx]
	var out []cfsm.Symbol
	for _, oid := range p.altOuts(idx) {
		if oid == p.epsID || p.syms[oid] == "" {
			continue
		}
		if e.explainsOverlay(s, observed, Overlay{t: idx, output: oid, to: t.To, dest: t.Dest}) {
			out = append(out, p.syms[oid])
		}
	}
	return out
}

// coStatOut computes statout(T_k) for an internal-output candidate: couples
// (s, o) over the class alphabet and every state of the machine, in the
// interpreted output-major order.
func (e *Engine) coStatOut(s *Suite, observed [][]cobs, idx int32) []core.StateOutput {
	p := e.p
	t := p.trans[idx]
	mp := &p.machines[t.Machine]
	var out []core.StateOutput
	for _, oid := range p.altOuts(idx) {
		if oid == p.epsID || p.syms[oid] == "" {
			continue
		}
		for sid := int32(0); sid < mp.numStates; sid++ {
			if e.explainsOverlay(s, observed, Overlay{t: idx, output: oid, to: sid, dest: t.Dest}) {
				out = append(out, core.StateOutput{State: mp.states[sid], Output: p.syms[oid]})
			}
		}
	}
	return out
}
