// Package fault implements the CFSM fault model of Section 2.2: a single
// transition of the implementation may carry an output fault (wrong message
// type, same address), a transfer fault (wrong next state), or both. The
// package applies faults to specification systems to obtain mutants and
// enumerates the complete single-transition mutant space, which drives the
// exhaustive diagnosis experiments (E5) and the property-based tests.
package fault

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// Kind classifies a fault per Definitions 2 and 3 of the paper.
type Kind int

// Fault kinds. A transition with both an output and a transfer fault is
// classified KindBoth.
const (
	KindOutput Kind = iota + 1
	KindTransfer
	KindBoth
)

// String returns the paper's terminology for the kind.
func (k Kind) String() string {
	switch k {
	case KindOutput:
		return "output"
	case KindTransfer:
		return "transfer"
	case KindBoth:
		return "output+transfer"
	case KindAddress:
		return "address"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is a single-transition fault: the referenced transition produces
// Output instead of its specified output (when Kind includes an output
// fault), moves to To instead of its specified next state (when Kind
// includes a transfer fault), or — for the KindAddress extension — delivers
// its unchanged output to Dest instead of the specified destination.
type Fault struct {
	Ref    cfsm.Ref
	Kind   Kind
	Output cfsm.Symbol // faulty output; set iff Kind is KindOutput or KindBoth
	To     cfsm.State  // faulty next state; set iff Kind is KindTransfer or KindBoth
	Dest   int         // faulty destination; meaningful iff Kind is KindAddress
}

// String renders the fault in the style of the paper's diagnoses, e.g.
// "t7 outputs c' instead of d'" or "t\"4 transfers to s0 instead of s1".
func (f Fault) Describe(spec *cfsm.System) string {
	t, ok := spec.Transition(f.Ref)
	name := spec.RefString(f.Ref)
	if !ok {
		return fmt.Sprintf("%s: unknown transition", name)
	}
	switch f.Kind {
	case KindOutput:
		return fmt.Sprintf("%s outputs %s instead of %s", name, f.Output, t.Output)
	case KindTransfer:
		return fmt.Sprintf("%s transfers to %s instead of %s", name, f.To, t.To)
	case KindBoth:
		return fmt.Sprintf("%s outputs %s instead of %s and transfers to %s instead of %s",
			name, f.Output, t.Output, f.To, t.To)
	case KindAddress:
		return fmt.Sprintf("%s addresses %s instead of %s",
			name, destName(spec, f.Dest), destName(spec, t.Dest))
	default:
		return fmt.Sprintf("%s: invalid fault kind", name)
	}
}

// Validate checks that the fault is well formed with respect to the
// specification: the transition exists, a faulty output differs from the
// specified one and stays within the transition's class alphabet (OEO for
// external-output transitions, OIO_{i>j} for internal ones — the fault model
// keeps the address component correct), and a faulty next state differs from
// the specified one and is a declared state.
func (f Fault) Validate(spec *cfsm.System) error {
	t, ok := spec.Transition(f.Ref)
	if !ok {
		return fmt.Errorf("fault: no transition %s", spec.RefString(f.Ref))
	}
	switch f.Kind {
	case KindOutput, KindTransfer, KindBoth:
	case KindAddress:
		// Delegate the full model-rule check to the rewire itself.
		_, err := spec.RewireAddress(f.Ref, f.Dest)
		return err
	default:
		return fmt.Errorf("fault %s: invalid kind %d", spec.RefString(f.Ref), int(f.Kind))
	}
	if f.Kind == KindOutput || f.Kind == KindBoth {
		if f.Output == "" || f.Output == t.Output {
			return fmt.Errorf("fault %s: output fault must change the output (got %q)",
				spec.RefString(f.Ref), f.Output)
		}
		legal := false
		for _, o := range spec.AlternativeOutputs(f.Ref) {
			if o == f.Output {
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("fault %s: output %q is outside the transition's class alphabet",
				spec.RefString(f.Ref), f.Output)
		}
	}
	if f.Kind == KindTransfer || f.Kind == KindBoth {
		if f.To == "" || f.To == t.To {
			return fmt.Errorf("fault %s: transfer fault must change the next state (got %q)",
				spec.RefString(f.Ref), f.To)
		}
		if !spec.Machine(f.Ref.Machine).HasState(f.To) {
			return fmt.Errorf("fault %s: %q is not a state of %s",
				spec.RefString(f.Ref), f.To, spec.Machine(f.Ref.Machine).Name())
		}
	}
	return nil
}

// Apply returns the mutant system obtained by injecting the fault into the
// specification. The specification is not modified.
func (f Fault) Apply(spec *cfsm.System) (*cfsm.System, error) {
	if err := f.Validate(spec); err != nil {
		return nil, err
	}
	if f.Kind == KindAddress {
		return spec.RewireAddress(f.Ref, f.Dest)
	}
	var out cfsm.Symbol
	var to cfsm.State
	if f.Kind == KindOutput || f.Kind == KindBoth {
		out = f.Output
	}
	if f.Kind == KindTransfer || f.Kind == KindBoth {
		to = f.To
	}
	return spec.Rewire(f.Ref, out, to)
}

// Enumerate returns every single-transition fault of the specification under
// the paper's fault model: for each transition, every alternative output in
// its class alphabet, every alternative next state, and every combination of
// the two. The order is deterministic.
func Enumerate(spec *cfsm.System) []Fault {
	var out []Fault
	for _, ref := range spec.Refs() {
		t, _ := spec.Transition(ref)
		states := spec.Machine(ref.Machine).States()
		alts := spec.AlternativeOutputs(ref)
		for _, o := range alts {
			out = append(out, Fault{Ref: ref, Kind: KindOutput, Output: o})
		}
		for _, s := range states {
			if s == t.To {
				continue
			}
			out = append(out, Fault{Ref: ref, Kind: KindTransfer, To: s})
		}
		for _, o := range alts {
			for _, s := range states {
				if s == t.To {
					continue
				}
				out = append(out, Fault{Ref: ref, Kind: KindBoth, Output: o, To: s})
			}
		}
	}
	return out
}

// Mutant pairs a fault with the system it produces.
type Mutant struct {
	Fault  Fault
	System *cfsm.System
}

// ForEachMutant streams the complete single-transition mutant space of the
// specification in Enumerate order. Mutant systems are realized against
// reusable per-machine scratch buffers (cfsm.Patcher): one transition is
// patched in place before fn and restored afterwards, so the enumeration
// performs no per-mutant system clone or re-validation — each fault is still
// validated against the specification, and faults failing validation (which
// cannot happen for Enumerate's output) are skipped.
//
// The Mutant passed to fn is therefore valid only until fn returns: it must
// not be retained or used concurrently with the enumeration. Callers that
// need long-lived mutant systems should use Mutants or Fault.Apply. A
// non-nil error from fn stops the enumeration and is returned.
func ForEachMutant(spec *cfsm.System, fn func(Mutant) error) error {
	p := cfsm.NewPatcher(spec)
	for _, f := range Enumerate(spec) {
		sys, err := f.ApplyPatched(spec, p)
		if err != nil {
			continue
		}
		if err := fn(Mutant{Fault: f, System: sys}); err != nil {
			return err
		}
	}
	return nil
}

// ApplyPatched realizes the fault against the patcher's scratch buffers: the
// validation runs against the specification exactly as in Apply, but the
// mutant aliases the patcher and stays valid only until its machine is
// patched again.
func (f Fault) ApplyPatched(spec *cfsm.System, p *cfsm.Patcher) (*cfsm.System, error) {
	if err := f.Validate(spec); err != nil {
		return nil, err
	}
	if f.Kind == KindAddress {
		sys, ok := p.RewireAddress(f.Ref, f.Dest)
		if !ok {
			return nil, fmt.Errorf("fault %s: patch failed", spec.RefString(f.Ref))
		}
		return sys, nil
	}
	var out cfsm.Symbol
	var to cfsm.State
	if f.Kind == KindOutput || f.Kind == KindBoth {
		out = f.Output
	}
	if f.Kind == KindTransfer || f.Kind == KindBoth {
		to = f.To
	}
	sys, ok := p.Rewire(f.Ref, out, to)
	if !ok {
		return nil, fmt.Errorf("fault %s: patch failed", spec.RefString(f.Ref))
	}
	return sys, nil
}

// Mutants applies every enumerated fault to the specification and collects
// the results as independent system clones (safe to retain, unlike the
// scratch-backed mutants ForEachMutant streams); use the streaming form when
// the mutants are consumed one at a time.
func Mutants(spec *cfsm.System) []Mutant {
	var out []Mutant
	for _, f := range Enumerate(spec) {
		sys, err := f.Apply(spec)
		if err != nil {
			continue
		}
		out = append(out, Mutant{Fault: f, System: sys})
	}
	return out
}
