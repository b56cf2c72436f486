package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

// The answer checker judges each diagnosis against ground truth computed by
// simulation, independently of the engine that produced it:
//
//   - "no fault detected" exactly when the IUT's suite observations equal
//     the specification's (per-port projections for a port-mapped request);
//   - "fault localized" must name the injected transition (the paper's
//     guarantee, and the sweep's localized-correct class) or a fault whose
//     mutant is observationally equivalent to the IUT. A localization that
//     names the right transition with a non-equivalent fault detail (an
//     output-and-transfer mutant localized as its output half) is counted
//     as inexact and printed, not failed;
//   - "ambiguous" must keep the injected fault, or an equivalent one, among
//     the remaining hypotheses;
//   - any other verdict, and any non-200 answer, is a failure.

// diagnosisAnswer is the part of a /v1/diagnose response the checker and the
// traced replay read.
type diagnosisAnswer struct {
	Verdict          string   `json:"verdict"`
	Fault            string   `json:"fault"`
	Remaining        []string `json:"remaining"`
	Cleared          []string `json:"cleared"`
	LocallyAmbiguous []string `json:"locallyAmbiguous"`
	TotalTests       int      `json:"totalTests"`
	TotalInputs      int      `json:"totalInputs"`
}

const (
	verdictNoFault   = "no fault detected"
	verdictLocalized = "fault localized"
	verdictAmbiguous = "ambiguous"
)

type equivKey struct {
	iut   int
	fault string
}

// checker holds the fault catalogue and the memoized equivalence results.
type checker struct {
	in     *diagInputs
	faults map[string]fault.Fault // Describe(spec) -> fault
	equiv  map[equivKey]bool
	// inexact counts distinct answers that localized the injected transition
	// with a fault that is not equivalent to the IUT.
	inexact int
}

func newChecker(in *diagInputs) *checker {
	c := &checker{in: in, faults: map[string]fault.Fault{}, equiv: map[equivKey]bool{}}
	for _, f := range append(fault.Enumerate(in.spec), fault.EnumerateAddress(in.spec)...) {
		c.faults[f.Describe(in.spec)] = f
	}
	return c
}

// equivalent reports whether the named fault's mutant is observationally
// equivalent to IUT iut.
func (c *checker) equivalent(iut int, desc string) bool {
	truth := c.in.iuts[iut]
	if desc == truth.fault.Describe(c.in.spec) {
		return true
	}
	key := equivKey{iut, desc}
	if eq, ok := c.equiv[key]; ok {
		return eq
	}
	eq := false
	if f, ok := c.faults[desc]; ok {
		if m, err := f.Apply(c.in.spec); err == nil {
			eq = testgen.SystemsEquivalent(m, truth.sys)
		}
	}
	c.equiv[key] = eq
	return eq
}

// check judges one answer to variant v.
func (c *checker) check(v variant, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	var a diagnosisAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	truth := c.in.iuts[v.iut]
	symptom := truth.globalSymptom
	if v.ports {
		symptom = truth.portSymptom
	}
	switch a.Verdict {
	case verdictNoFault:
		if symptom {
			return fmt.Errorf("no fault reported, but the suite shows a symptom of %s", truth.fault.Describe(c.in.spec))
		}
		return nil
	case verdictLocalized:
		if !symptom {
			return fmt.Errorf("fault %q localized without a symptom", a.Fault)
		}
		if c.equivalent(v.iut, a.Fault) {
			return nil
		}
		if f, ok := c.faults[a.Fault]; ok && f.Ref == truth.fault.Ref {
			c.inexact++
			return nil
		}
		return fmt.Errorf("localized %q, neither the injected transition nor equivalent to the injected %s", a.Fault, truth.fault.Describe(c.in.spec))
	case verdictAmbiguous:
		if !symptom {
			return fmt.Errorf("ambiguous verdict without a symptom")
		}
		for _, r := range a.Remaining {
			if c.equivalent(v.iut, r) {
				return nil
			}
		}
		return fmt.Errorf("ambiguous %v misses the injected %s", a.Remaining, truth.fault.Describe(c.in.spec))
	default:
		return fmt.Errorf("unexpected verdict %q for %s", a.Verdict, truth.fault.Describe(c.in.spec))
	}
}

// simulatedDetections counts the mutants of spec whose suite observations
// differ from the specification's, by plain interpreted simulation.
func simulatedDetections(spec *cfsm.System, suite []cfsm.TestCase) (mutants, detected int, err error) {
	expected, err := spec.RunSuite(suite)
	if err != nil {
		return 0, 0, err
	}
	faults := fault.Enumerate(spec)
	for _, f := range faults {
		m, err := f.Apply(spec)
		if err != nil {
			return 0, 0, err
		}
		got, err := m.RunSuite(suite)
		if err != nil {
			return 0, 0, err
		}
		for k := range got {
			if !cfsm.ObsEqual(got[k], expected[k]) {
				detected++
				break
			}
		}
	}
	return len(faults), detected, nil
}
