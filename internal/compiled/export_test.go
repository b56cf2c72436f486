package compiled

import "cfsmdiag/internal/cfsm"

// Hypothesis is one overlay the compiled analysis (AnalyzeInto) can
// synthesize for transition T: output Output and next state To, the
// transition's other fields unchanged. The identity overlay is included.
type Hypothesis struct {
	T      int32
	Output cfsm.Symbol
	To     cfsm.State
}

// Hypotheses lists every overlay AnalyzeInto can build: per transition, the
// specified output and every alternative output of its class alphabet (ε
// and the empty symbol excluded, as in the analysis), each with every state
// of the transition's machine.
func (p *Program) Hypotheses() []Hypothesis {
	var out []Hypothesis
	for idx := range p.trans {
		t := p.trans[idx]
		outs := append([]int32{t.Output}, p.altOuts(int32(idx))...)
		for _, oid := range outs {
			if oid == p.epsID || p.syms[oid] == "" {
				continue
			}
			for _, st := range p.machines[t.Machine].states {
				out = append(out, Hypothesis{T: int32(idx), Output: p.syms[oid], To: st})
			}
		}
	}
	return out
}

// ExplainsHypothesis runs the hypothesis check AnalyzeInto runs for h,
// through the engine's suite, observation and divergence-table caches.
func (e *Engine) ExplainsHypothesis(suite []cfsm.TestCase, observed [][]cfsm.Observation, h Hypothesis) bool {
	p := e.p
	t := p.trans[h.T]
	to, _ := p.machines[t.Machine].stateID(h.To)
	ov := Overlay{t: h.T, output: p.symID(h.Output), to: to, dest: t.Dest}
	s := e.suiteFor(suite)
	e.compileObserved(observed)
	return e.explainsOverlay(s, e.observed, ov)
}
