package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/paper"
)

// CompileBenchRecord is the machine-readable record of experiment E14
// (BENCH_compile.json): what lowering the specification into the dense
// compiled representation costs, and what the diagnosis hot paths gain.
// All sweep numbers are serial (Workers: 1) so the comparison isolates the
// representation, not the worker pool.
type CompileBenchRecord struct {
	System     string `json:"system"`
	Mutants    int    `json:"mutants"`
	SuiteCases int    `json:"suite_cases"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// CompileNsPerOp is the one-off cost of compiled.Compile — paid once per
	// sweep and amortized over every mutant.
	CompileNsPerOp int64 `json:"compile_ns_per_op"`
	NumSymbols     int   `json:"num_symbols"`
	Configurations int   `json:"configurations"`

	InterpretedSweepNsPerOp  int64   `json:"interpreted_sweep_ns_per_op"`
	InterpretedNsPerMutant   int64   `json:"interpreted_ns_per_mutant"`
	InterpretedAllocsPerOp   int64   `json:"interpreted_allocs_per_op"`
	CompiledSweepNsPerOp     int64   `json:"compiled_sweep_ns_per_op"`
	CompiledNsPerMutant      int64   `json:"compiled_ns_per_mutant"`
	CompiledAllocsPerOp      int64   `json:"compiled_allocs_per_op"`
	SweepSpeedup             float64 `json:"sweep_speedup"`
	SweepAllocReductionRatio float64 `json:"sweep_alloc_reduction_ratio"`

	// The model-load trio: what a request pays to obtain a validated system
	// from each on-disk form, and what the server's content-addressed
	// registry pays on a hit (hash the bytes, look the model up).
	JSONParseNsPerOp    int64 `json:"json_parse_ns_per_op"`
	BinaryDecodeNsPerOp int64 `json:"binary_decode_ns_per_op"`
	RegistryHitNsPerOp  int64 `json:"registry_hit_ns_per_op"`
}

// RunCompileBench measures experiment E14 on the Figure 1 workload: compile
// cost, the serial sweep on the interpreted vs the compiled engine, and the
// model-load paths backing the server's registry. It fails when the two
// engines disagree on any sweep outcome — the speedup is only meaningful if
// the answers are identical.
func RunCompileBench() (CompileBenchRecord, error) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	rec := CompileBenchRecord{
		System:     "figure1",
		SuiteCases: len(suite),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	prog, err := compiled.Compile(spec)
	if err != nil {
		return rec, err
	}
	rec.NumSymbols = prog.NumSymbols()
	rec.Configurations = int(prog.Configs())

	// The two engines must agree before their speeds are compared.
	interpreted, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1, Interpreted: true})
	if err != nil {
		return rec, err
	}
	compiledRes, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1})
	if err != nil {
		return rec, err
	}
	rec.Mutants = len(interpreted.Reports)
	if len(compiledRes.Reports) != len(interpreted.Reports) {
		return rec, fmt.Errorf("engines disagree on the mutant count: %d vs %d",
			len(interpreted.Reports), len(compiledRes.Reports))
	}
	for i := range interpreted.Reports {
		a, b := interpreted.Reports[i], compiledRes.Reports[i]
		if a.Fault != b.Fault || a.Outcome != b.Outcome || a.AdditionalTests != b.AdditionalTests {
			return rec, fmt.Errorf("engines disagree on mutant %d (%s): %s/%d vs %s/%d",
				i, a.Fault.Describe(spec), a.Outcome, a.AdditionalTests, b.Outcome, b.AdditionalTests)
		}
	}

	compileBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Compile(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.CompileNsPerOp = compileBench.NsPerOp()

	sweepBench := func(interp bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1, Interpreted: interp}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	ib := sweepBench(true)
	rec.InterpretedSweepNsPerOp = ib.NsPerOp()
	rec.InterpretedNsPerMutant = ib.NsPerOp() / int64(rec.Mutants)
	rec.InterpretedAllocsPerOp = ib.AllocsPerOp()

	cb := sweepBench(false)
	rec.CompiledSweepNsPerOp = cb.NsPerOp()
	rec.CompiledNsPerMutant = cb.NsPerOp() / int64(rec.Mutants)
	rec.CompiledAllocsPerOp = cb.AllocsPerOp()
	rec.SweepSpeedup = float64(ib.NsPerOp()) / float64(cb.NsPerOp())
	if cb.AllocsPerOp() > 0 {
		rec.SweepAllocReductionRatio = float64(ib.AllocsPerOp()) / float64(cb.AllocsPerOp())
	}

	// Model-load paths. The registry hit is emulated exactly as the server
	// keys its cache: hash the submitted bytes, look the parsed model up.
	jsonBytes, err := spec.MarshalJSON()
	if err != nil {
		return rec, err
	}
	binBytes := compiled.EncodeSystem(spec)
	jp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfsm.ParseSystem(jsonBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.JSONParseNsPerOp = jp.NsPerOp()
	bd := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.DecodeSystem(binBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.BinaryDecodeNsPerOp = bd.NsPerOp()
	cache := map[string]*cfsm.System{}
	sum := sha256.Sum256(jsonBytes)
	cache[string(sum[:])] = spec
	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := sha256.Sum256(jsonBytes)
			if cache[string(k[:])] == nil {
				b.Fatal("registry miss")
			}
		}
	})
	rec.RegistryHitNsPerOp = hit.NsPerOp()
	return rec, nil
}
