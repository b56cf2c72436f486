package compiled_test

import (
	"testing"

	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// The before/after pair backing BENCH_compile.json: the same serial sweep on
// the interpreted and the compiled engine. Run with
//
//	go test ./internal/compiled -bench Sweep -benchmem
//
// or regenerate the committed record with `cfsmdiag compilebench`.

func BenchmarkCompile(b *testing.B) {
	spec := paper.MustFigure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkSweep(b *testing.B, interpreted bool) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepOpts(spec, suite,
			experiments.SweepOptions{Workers: 1, Interpreted: interpreted}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepInterpreted(b *testing.B) { benchmarkSweep(b, true) }
func BenchmarkSweepCompiled(b *testing.B)    { benchmarkSweep(b, false) }

// BenchmarkSweepTour is the workload behind the workers=1 row of
// BENCH_sweep.json (`cfsmdiag sweep -paper -benchjson`): the Figure 1 sweep
// with the generated transition-tour suite.
func BenchmarkSweepTour(b *testing.B) {
	spec := paper.MustFigure1()
	suite, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) > 0 {
		b.Fatalf("tour left %v uncovered", uncovered)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepOpts(spec, suite,
			experiments.SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRandTour is the serial sweep of the benchmark's rand-sweep
// system 0 (randgen N=4, States=6, ExtInputs=3, seed 1; 2,965 mutants) with
// its generated transition tour: one 212-step case, the long-tour shape in
// which the hypothesis replay's re-convergence cut-off saves the most.
func BenchmarkSweepRandTour(b *testing.B) {
	cfg := randgen.DefaultConfig()
	cfg.N, cfg.States, cfg.ExtInputs = 4, 6, 3
	cfg.Seed = 1
	spec, err := randgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	suite, _ := testgen.Tour(spec, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepOpts(spec, suite,
			experiments.SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSuite measures the compiled simulator alone (the oracle hot
// path), next to the interpreted System.RunSuite.
func BenchmarkRunnerSuite(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	prog, err := compiled.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	r := prog.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunSuite(suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretedSuite(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.RunSuite(suite); err != nil {
			b.Fatal(err)
		}
	}
}
