package compiled_test

import (
	"math/rand"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// explainsFixtures is the differential corpus plus the benchmark's
// rand-sweep system 0 (randgen N=4, States=6, ExtInputs=3, seed 1) with its
// 212-step transition tour: one long case, where the replay's re-convergence
// cut-off fires most.
func explainsFixtures(t *testing.T) []fixture {
	t.Helper()
	cfg := randgen.DefaultConfig()
	cfg.N, cfg.States, cfg.ExtInputs = 4, 6, 3
	cfg.Seed = 1
	sys, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := testgen.Tour(sys, 0)
	return append(fixtures(t), fixture{"rand-sweep-0", sys, suite})
}

// predict runs the suite on the interpreted system realizing a hypothesis;
// nil means some case fails to run, so the hypothesis explains nothing.
func predict(sys *cfsm.System, suite []cfsm.TestCase) [][]cfsm.Observation {
	out := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := sys.Run(tc)
		if err != nil {
			return nil
		}
		out[i] = obs
	}
	return out
}

// explainedBy is the interpreted verdict: the predicted runs reproduce every
// observed sequence.
func explainedBy(pred, observed [][]cfsm.Observation) bool {
	if pred == nil {
		return false
	}
	for i := range pred {
		if !cfsm.ObsEqual(pred[i], observed[i]) {
			return false
		}
	}
	return true
}

// hypothesisFault is the interpreted fault realizing an AnalyzeInto overlay;
// ok is false for the identity overlay, which realizes the specification.
func hypothesisFault(p *compiled.Program, h compiled.Hypothesis) (fault.Fault, bool) {
	ref := p.Ref(h.T)
	tr, _ := p.System().Transition(ref)
	f := fault.Fault{Ref: ref, Output: h.Output, To: h.To}
	switch {
	case h.Output != tr.Output && h.To != tr.To:
		f.Kind = fault.KindBoth
	case h.Output != tr.Output:
		f.Kind, f.To = fault.KindOutput, ""
	case h.To != tr.To:
		f.Kind, f.Output = fault.KindTransfer, ""
	default:
		return fault.Fault{}, false
	}
	return f, true
}

// TestExplainsMatchesApply pins the replay's cut-offs (the fire index, the
// divergence table and the re-convergence jump) to the interpreted
// apply-and-run check: for observations from a seeded sample of mutants (and
// the specification itself), every overlay AnalyzeInto can build and every
// enumerated fault through Explains must answer exactly what fault.Apply
// plus a run of the suite plus a comparison answers. One engine serves
// every observation set, so a divergence table left stale by the reused
// observation buffers fails the test.
func TestExplainsMatchesApply(t *testing.T) {
	for _, fx := range explainsFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			e, err := compiled.EngineFor(compiled.ProgramFor(fx.sys))
			if err != nil {
				t.Skip(err)
			}
			p := e.Program()
			faults := allFaults(fx.sys)

			specPred := predict(fx.sys, fx.suite)
			hyps := p.Hypotheses()
			hypPred := make([][][]cfsm.Observation, len(hyps))
			for i, h := range hyps {
				f, ok := hypothesisFault(p, h)
				if !ok {
					hypPred[i] = specPred
					continue
				}
				m, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
				}
				hypPred[i] = predict(m, fx.suite)
			}
			faultPred := make([][][]cfsm.Observation, len(faults))
			for i, f := range faults {
				if m, err := f.Apply(fx.sys); err == nil {
					faultPred[i] = predict(m, fx.suite)
				}
			}

			// Observation sets: the specification's, and those of a seeded
			// sample of mutants, each in a fresh slice of the same shape.
			var sets [][][]cfsm.Observation
			if specPred != nil {
				sets = append(sets, specPred)
			}
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < 6 && len(faults) > 0; k++ {
				if pred := faultPred[rng.Intn(len(faults))]; pred != nil {
					sets = append(sets, pred)
				}
			}
			if len(sets) == 0 {
				t.Skip("no runnable observation set")
			}
			var trueHyps, trueFaults int
			for si, set := range sets {
				observed := make([][]cfsm.Observation, len(set))
				for i := range set {
					observed[i] = append([]cfsm.Observation(nil), set[i]...)
				}
				for i, h := range hyps {
					want := explainedBy(hypPred[i], observed)
					if got := e.ExplainsHypothesis(fx.suite, observed, h); got != want {
						t.Fatalf("set %d, hypothesis %s outputs %s, to %s: compiled %v, interpreted %v",
							si, fx.sys.RefString(p.Ref(h.T)), h.Output, h.To, got, want)
					}
					if want {
						trueHyps++
					}
				}
				for i, f := range faults {
					want := explainedBy(faultPred[i], observed)
					if got := e.Explains(fx.suite, observed, f); got != want {
						t.Fatalf("set %d, fault %s: compiled %v, interpreted %v",
							si, f.Describe(fx.sys), got, want)
					}
					if want {
						trueFaults++
					}
				}
			}
			if trueHyps == 0 || trueFaults == 0 {
				t.Errorf("corpus never explains: %d hypotheses, %d faults answered true", trueHyps, trueFaults)
			}
			t.Logf("%d observation sets, %d hypotheses (%d true), %d faults (%d true)",
				len(sets), len(hyps), trueHyps, len(faults), trueFaults)
		})
	}
}
