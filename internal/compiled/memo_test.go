package compiled

import (
	"fmt"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
)

// TestDiagnosisReusesMemoisedProgram: the compiled engine is core's default,
// and a second diagnosis of the same *cfsm.System reuses the Program the
// first one memoised on it instead of compiling again. A default engine
// that compiled outside the memo would leave the slot empty; the memo
// itself builds at most once per system.
func TestDiagnosisReusesMemoisedProgram(t *testing.T) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	if Cached(spec) != nil {
		t.Fatal("fresh system already has a program")
	}
	var first *Program
	for i := 0; i < 2; i++ {
		loc, err := core.Diagnose(spec, paper.TestSuite(), &core.SystemOracle{Sys: iut})
		if err != nil {
			t.Fatalf("diagnosis %d: %v", i+1, err)
		}
		if loc.Verdict != core.VerdictLocalized {
			t.Fatalf("diagnosis %d: verdict %v", i+1, loc.Verdict)
		}
		p := Cached(spec)
		if p == nil {
			t.Fatalf("diagnosis %d did not memoise a program", i+1)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Fatal("second diagnosis replaced the memoised program")
		}
	}
	if ProgramFor(spec) != first {
		t.Fatal("ProgramFor does not return the memoised program")
	}
}

// TestUnpackableSystemFallsBackToInterpreted: a system whose configuration
// space exceeds the packed keys (32 two-state machines, 2^32
// configurations) still diagnoses by default — on the interpreted engine —
// with the reference verdict.
func TestUnpackableSystemFallsBackToInterpreted(t *testing.T) {
	const n = 32
	var ms []*cfsm.Machine
	for i := 0; i < n; i++ {
		m, err := cfsm.NewMachine(fmt.Sprintf("M%d", i+1), "s0", []cfsm.State{"s0", "s1"}, []cfsm.Transition{
			{Name: "t1", From: "s0", Input: "a", Output: "x", To: "s1", Dest: cfsm.DestEnv},
			{Name: "t2", From: "s1", Input: "a", Output: "y", To: "s0", Dest: cfsm.DestEnv},
		})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	spec, err := cfsm.NewSystem(ms...)
	if err != nil {
		t.Fatal(err)
	}
	if ProgramFor(spec).Packable() {
		t.Fatal("32 two-state machines should not pack")
	}
	if defaultEngine(spec) != nil {
		t.Fatal("default engine accepted an unpackable system")
	}
	f := fault.Fault{Ref: cfsm.Ref{Machine: 3, Name: "t1"}, Kind: fault.KindOutput, Output: "y"}
	iut, err := f.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	suite := []cfsm.TestCase{{Name: "tc", Inputs: []cfsm.Input{
		cfsm.Reset(), {Port: 3, Sym: "a"}, {Port: 3, Sym: "a"},
	}}}
	got, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: iut})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: iut}, core.WithEngine(core.NewSystemEngine(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != core.VerdictLocalized {
		t.Fatalf("verdict %v, want the output fault localized", got.Verdict)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default diagnosis diverges from the interpreted one:\ngot  %+v\nwant %+v", got, want)
	}
}
