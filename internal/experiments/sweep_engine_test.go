package experiments

import (
	"testing"

	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/trace"
)

// TestInterpretedSweepNeverCompiles: SweepOptions.Interpreted is the
// reference the compiled sweep and perfbench's expected_sweep.json are
// pinned to, so neither its mutant diagnoses nor its traced re-runs may
// touch a compiled Program — the specification's memo slot stays empty.
// The default sweep then memoises the program and reproduces the
// reference result exactly.
func TestInterpretedSweepNeverCompiles(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	var ref SweepResult
	for _, workers := range []int{1, 2} {
		res, err := RunSweepOpts(spec, suite, SweepOptions{
			Workers:          workers,
			Interpreted:      true,
			CheckEquivalence: true,
			Trace:            trace.New(),
			TraceFailures:    3,
		})
		if err != nil {
			t.Fatalf("interpreted sweep (workers=%d): %v", workers, err)
		}
		if p := compiled.Cached(spec); p != nil {
			t.Fatalf("interpreted sweep (workers=%d) compiled the specification", workers)
		}
		ref = res
	}
	got, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1, CheckEquivalence: true})
	if err != nil {
		t.Fatalf("compiled sweep: %v", err)
	}
	if compiled.Cached(spec) == nil {
		t.Fatal("default sweep did not memoise the specification's program")
	}
	assertSweepsIdentical(t, "interpreted vs compiled", ref, got)
}
