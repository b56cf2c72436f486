package compiled_test

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// explainsCorpus is one randgen system with its transition tour, its fault
// space and a compiled engine reused across fuzz iterations.
type explainsCorpus struct {
	sys    *cfsm.System
	suite  []cfsm.TestCase
	faults []fault.Fault
	syms   []cfsm.Symbol
	eng    *compiled.Engine
}

// FuzzExplainsParity picks a randgen system (eight seeds of the default
// configuration) and a fault of it, takes the observations of the fault's
// own mutant and mutates them with the byte stream — in triples (case,
// position, edit): replace the symbol by any system symbol or a foreign one,
// move it to another port, or truncate the case there. The compiled Explains
// must answer exactly like the interpreted apply-and-run check, both on the
// mutated observations and on the unmutated ones before them, through one
// engine per system (so stale observation buffers would show).
func FuzzExplainsParity(f *testing.F) {
	corpora := map[int64]*explainsCorpus{}
	get := func(t *testing.T, seed int64) *explainsCorpus {
		seed = 1 + (seed%8+8)%8
		if c := corpora[seed]; c != nil {
			return c
		}
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		suite, _ := testgen.Tour(sys, 0)
		eng, err := compiled.EngineFor(compiled.ProgramFor(sys))
		if err != nil {
			t.Fatal(err)
		}
		c := &explainsCorpus{sys: sys, suite: suite, faults: allFaults(sys), eng: eng}
		seen := map[cfsm.Symbol]bool{}
		for i := 0; i < sys.N(); i++ {
			for _, tr := range sys.Machine(i).Transitions() {
				for _, s := range []cfsm.Symbol{tr.Input, tr.Output} {
					if !seen[s] {
						seen[s] = true
						c.syms = append(c.syms, s)
					}
				}
			}
		}
		c.syms = append(c.syms, cfsm.Epsilon, cfsm.Null, "zz-unknown")
		corpora[seed] = c
		return c
	}

	f.Add(int64(1), uint16(0), []byte{})
	f.Add(int64(2), uint16(17), []byte{0, 3, 1})
	f.Add(int64(3), uint16(40), []byte{0, 9, 4, 0, 2, 8})
	f.Add(int64(5), uint16(99), []byte{0, 200, 2})
	f.Add(int64(7), uint16(250), []byte{0, 1, 5, 0, 30, 1, 0, 60, 0})
	f.Fuzz(func(t *testing.T, seed int64, fi uint16, edits []byte) {
		c := get(t, seed)
		if len(c.faults) == 0 || len(c.suite) == 0 {
			t.Skip("no faults or no suite")
		}
		fl := c.faults[int(fi)%len(c.faults)]
		m, err := fl.Apply(c.sys)
		if err != nil {
			t.Fatalf("apply enumerated fault %s: %v", fl.Describe(c.sys), err)
		}
		base := predict(m, c.suite)
		if base == nil {
			base = predict(c.sys, c.suite)
		}
		if base == nil {
			t.Skip("suite does not run")
		}
		ref := core.NewSystemEngine(c.sys)
		check := func(what string, observed [][]cfsm.Observation) {
			want := ref.Explains(c.suite, observed, fl)
			if got := c.eng.Explains(c.suite, observed, fl); got != want {
				t.Fatalf("%s observations, fault %s: compiled %v, interpreted %v",
					what, fl.Describe(c.sys), got, want)
			}
		}
		check("unmutated", base)

		observed := make([][]cfsm.Observation, len(base))
		for i := range base {
			observed[i] = append([]cfsm.Observation(nil), base[i]...)
		}
		for k := 0; k+2 < len(edits); k += 3 {
			obs := observed[int(edits[k])%len(observed)]
			if len(obs) == 0 {
				continue
			}
			pos := int(edits[k+1]) % len(obs)
			switch op := int(edits[k+2]); op % 3 {
			case 0:
				obs[pos].Sym = c.syms[(op/3)%len(c.syms)]
			case 1:
				obs[pos].Port = (obs[pos].Port + 1 + op/3) % c.sys.N()
			case 2:
				observed[int(edits[k])%len(observed)] = obs[:pos]
			}
		}
		check("mutated", observed)
	})
}
