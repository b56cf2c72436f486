package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
)

// verifyHypotheses implements the verification half of Step 5B: every
// hypothesized fault is injected into a copy of the specification, the
// entire test suite is re-simulated, and the hypothesis survives only if the
// re-simulation reproduces the observed outputs exactly (the paper's
// calouts, findendingstates and processtate&out procedures, all of which
// "apply the test case to the modified specification" and compare with the
// observations).
func (a *Analysis) verifyHypotheses() {
	// findendingstates over FTCtr — plus, as a soundness amendment, over the
	// unique symptom transition (see DESIGN.md §3): for each candidate and
	// each state other than the specified next state, keep the states whose
	// transfer hypothesis explains all observations.
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCtr[m] {
			a.EndStates[r] = a.endStatesFor(r)
		}
	}
	for _, r := range a.UstSet {
		a.EndStates[r] = a.endStatesFor(r)
	}

	// ustprocessing: with the flag false the unique symptom transition is
	// checked for an output fault equal to the unique symptom output; with
	// the flag true it is checked for combined (state, uso) faults.
	//
	// Under an observation matcher (distributed observation) the recorded
	// symptom symbol no longer pins the faulty output — the observers may
	// not agree on which event fell on the symptom slot — and the flag is
	// computed from a canonical interleaving, so neither narrows soundly.
	// The matcher path therefore checks the full combined space over every
	// alternative output of the transition's class alphabet; verification
	// through the matcher prunes it back down.
	for _, r := range a.UstSet {
		switch {
		case a.matcher != nil:
			a.StatOut[r] = a.statOutFor(r, a.Spec.AlternativeOutputs(r))
		case a.Flag:
			a.StatOut[r] = a.statOutFor(r, []cfsm.Symbol{a.USO})
		default:
			a.Outputs[r] = a.outputsFor(r, []cfsm.Symbol{a.USO})
		}
	}

	// inttransproc over FTCco: internal-output transitions are checked for
	// every alternative output in their class alphabet OIO_{i>j}; with the
	// flag true — or under a matcher, where the flag is unreliable — for
	// combined (state, output) couples instead.
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCco[m] {
			alts := a.Spec.AlternativeOutputs(r)
			if a.Flag || a.matcher != nil {
				a.StatOut[r] = a.statOutFor(r, alts)
			} else {
				a.Outputs[r] = a.outputsFor(r, alts)
			}
		}
	}
}

// explains reports whether injecting the fault into the specification makes
// the whole test suite reproduce the observed outputs. The check is delegated
// to the analysis' execution engine (dense compiled tables by default, the
// interpreted reference via WithEngine(NewSystemEngine(spec))). With an
// observation matcher installed the comparison runs through it instead of
// exact equality: a hypothesis survives iff its prediction is compatible
// with the recorded observations (for per-port projections, iff some
// consistent interleaving of the prediction matches the local traces).
func (a *Analysis) explains(f fault.Fault) bool {
	if a.matcher == nil {
		return a.engine().Explains(a.Suite, a.Observed, f)
	}
	v, err := a.engine().NewVariant(&f)
	if err != nil {
		return false
	}
	for i, tc := range a.Suite {
		predicted, err := v.Run(tc)
		if err != nil {
			return false
		}
		if !a.matcher.Equal(predicted, a.Observed[i]) {
			return false
		}
	}
	return true
}

// endStatesFor computes EndStates(T_k): the states s ≠ NextState(T_k) such
// that the pure transfer hypothesis T_k → s explains all observations.
func (a *Analysis) endStatesFor(r cfsm.Ref) []cfsm.State {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []cfsm.State
	for _, s := range a.Spec.Machine(r.Machine).States() {
		if s == t.To {
			continue
		}
		if a.explains(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s}) {
			out = append(out, s)
		}
	}
	return out
}

// outputsFor computes outputs(T_k) over the given candidate faulty outputs:
// the outputs o ≠ Output(T_k) whose pure output hypothesis explains all
// observations. Candidates outside the transition's class alphabet (for the
// ust, an observed ε or an output foreign to OEO) are rejected by fault
// validation inside explains.
func (a *Analysis) outputsFor(r cfsm.Ref, candidates []cfsm.Symbol) []cfsm.Symbol {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []cfsm.Symbol
	for _, o := range candidates {
		if o == t.Output || o == cfsm.Epsilon || o == "" {
			continue
		}
		if a.explains(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o}) {
			out = append(out, o)
		}
	}
	return out
}

// statOutFor computes statout(T_k): couples (s, o) — o over the candidate
// faulty outputs, s over every state of the machine — whose combined
// hypothesis explains all observations. The couple with s equal to the
// specified next state degenerates to a pure output fault and is verified as
// such, so that the statout set covers the full "output and/or transfer"
// space of the flag-true case.
func (a *Analysis) statOutFor(r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []StateOutput
	for _, o := range candidates {
		if o == t.Output || o == cfsm.Epsilon || o == "" {
			continue
		}
		for _, s := range a.Spec.Machine(r.Machine).States() {
			var f fault.Fault
			if s == t.To {
				f = fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o}
			} else {
				f = fault.Fault{Ref: r, Kind: fault.KindBoth, Output: o, To: s}
			}
			if a.explains(f) {
				out = append(out, StateOutput{State: s, Output: o})
			}
		}
	}
	return out
}

// emitDiagnoses implements Step 5C: transitions with empty EndStates, empty
// outputs and empty statout are correct and drop out; the remainder form the
// DCtr/DCco sets, and one diagnosis is generated per surviving hypothesis.
func (a *Analysis) emitDiagnoses() {
	a.DCtr = make(MachineSets, a.Spec.N())
	a.DCco = make(MachineSets, a.Spec.N())
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCtr[m] {
			if len(a.EndStates[r]) > 0 {
				a.DCtr[m] = append(a.DCtr[m], r)
			}
		}
		for _, r := range a.FTCco[m] {
			if len(a.Outputs[r]) > 0 || len(a.StatOut[r]) > 0 {
				a.DCco[m] = append(a.DCco[m], r)
			}
		}
	}

	add := func(f fault.Fault) { a.Diagnoses = append(a.Diagnoses, f) }
	// Diagnoses of the unique symptom transition first, matching the
	// paper's Section 4 ordering (Diag1 concerns the ust).
	for _, r := range a.UstSet {
		for _, o := range a.Outputs[r] {
			add(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o})
		}
		for _, so := range a.StatOut[r] {
			add(statOutFault(a.Spec, r, so))
		}
		for _, s := range a.EndStates[r] {
			add(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s})
		}
	}
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.DCtr[m] {
			for _, s := range a.EndStates[r] {
				add(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s})
			}
		}
		for _, r := range a.DCco[m] {
			for _, o := range a.Outputs[r] {
				add(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o})
			}
			for _, so := range a.StatOut[r] {
				add(statOutFault(a.Spec, r, so))
			}
		}
	}
}

// EscalateCombined widens the hypothesis space to combined (state, output)
// faults for every output-fault candidate (the FTCco transitions and the
// unique symptom transition) and regenerates the Step 5C sets and diagnoses.
// It returns true when the escalation produced at least one new diagnosis.
//
// The escalation runs at most once per analysis; Localize invokes it before
// declaring the observations inconsistent with the fault model, closing the
// gap the paper's flag heuristic leaves for combined faults whose extra
// symptoms never materialize within the test suite.
func (a *Analysis) EscalateCombined() bool {
	if a.Escalated {
		return false
	}
	a.Escalated = true
	before := len(a.Diagnoses)

	merge := func(r cfsm.Ref, candidates []cfsm.Symbol) {
		have := make(map[StateOutput]bool, len(a.StatOut[r]))
		for _, so := range a.StatOut[r] {
			have[so] = true
		}
		for _, so := range a.statOutFor(r, candidates) {
			t, _ := a.Spec.Transition(r)
			if so.State == t.To {
				continue // pure output faults are already covered by Outputs
			}
			if !have[so] {
				have[so] = true
				a.StatOut[r] = append(a.StatOut[r], so)
			}
		}
		if len(a.StatOut[r]) == 0 {
			delete(a.StatOut, r)
		}
	}
	for _, r := range a.UstSet {
		merge(r, []cfsm.Symbol{a.USO})
	}
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCco[m] {
			merge(r, a.Spec.AlternativeOutputs(r))
		}
	}

	a.DCtr, a.DCco, a.Diagnoses = nil, nil, nil
	a.emitDiagnoses()
	return len(a.Diagnoses) > before
}

// EscalateAddress widens the hypothesis space once more, to the addressing
// faults of the KindAddress extension (the paper's future work): for every
// initial tentative candidate, every alternative destination whose injection
// explains all observations becomes a diagnosis. It returns true when new
// diagnoses appeared. Localize invokes it only after the combined-fault
// escalation also failed, so the paper's original fault model keeps
// priority.
func (a *Analysis) EscalateAddress() bool {
	if a.AddressEscalated {
		return false
	}
	a.AddressEscalated = true
	before := len(a.Diagnoses)
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.ITC[m] {
			t, ok := a.Spec.Transition(r)
			if !ok {
				continue
			}
			for dest := cfsm.DestEnv; dest < a.Spec.N(); dest++ {
				if dest == t.Dest || dest == r.Machine {
					continue
				}
				f := fault.Fault{Ref: r, Kind: fault.KindAddress, Dest: dest}
				if a.explains(f) {
					a.Addresses[r] = append(a.Addresses[r], dest)
					a.Diagnoses = append(a.Diagnoses, f)
				}
			}
		}
	}
	return len(a.Diagnoses) > before
}

// statOutFault converts a statout couple into a fault value, degenerating to
// a pure output fault when the state component equals the specified next
// state.
func statOutFault(spec *cfsm.System, r cfsm.Ref, so StateOutput) fault.Fault {
	t, _ := spec.Transition(r)
	if so.State == t.To {
		return fault.Fault{Ref: r, Kind: fault.KindOutput, Output: so.Output}
	}
	return fault.Fault{Ref: r, Kind: fault.KindBoth, Output: so.Output, To: so.State}
}
