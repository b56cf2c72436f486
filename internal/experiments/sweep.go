package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// MutantOutcome classifies the diagnosis of one mutant in a sweep.
type MutantOutcome int

// Sweep outcome classes.
const (
	// OutcomeUndetected: the initial suite produced no symptom.
	OutcomeUndetected MutantOutcome = iota + 1
	// OutcomeLocalizedCorrect: the verdict named the faulty transition (the
	// paper's guarantee is transition-level localization; the ExactFault
	// flag of the report records whether the fault detail matched too).
	OutcomeLocalizedCorrect
	// OutcomeLocalizedEquivalent: the verdict named a different transition,
	// but injecting the diagnosed fault is observationally equivalent to
	// the true mutant — indistinguishable by any test.
	OutcomeLocalizedEquivalent
	// OutcomeLocalizedWrong: the verdict named a non-equivalent wrong fault.
	OutcomeLocalizedWrong
	// OutcomeAmbiguousContainsTruth: several hypotheses remain, the faulty
	// transition among them.
	OutcomeAmbiguousContainsTruth
	// OutcomeAmbiguousMissesTruth: several hypotheses remain, none naming
	// the faulty transition.
	OutcomeAmbiguousMissesTruth
	// OutcomeInconsistent: the algorithm declared the observations outside
	// the fault model — a defect for an in-model mutant.
	OutcomeInconsistent
)

// String names the outcome.
func (o MutantOutcome) String() string {
	switch o {
	case OutcomeUndetected:
		return "undetected"
	case OutcomeLocalizedCorrect:
		return "localized-correct"
	case OutcomeLocalizedEquivalent:
		return "localized-equivalent"
	case OutcomeLocalizedWrong:
		return "localized-wrong"
	case OutcomeAmbiguousContainsTruth:
		return "ambiguous-contains-truth"
	case OutcomeAmbiguousMissesTruth:
		return "ambiguous-misses-truth"
	case OutcomeInconsistent:
		return "inconsistent"
	default:
		return fmt.Sprintf("MutantOutcome(%d)", int(o))
	}
}

// MutantReport is the sweep record for one mutant.
type MutantReport struct {
	Fault           fault.Fault
	Outcome         MutantOutcome
	AdditionalTests int
	AdditionalIn    int
	// ExactFault is set when the diagnosed fault matched the injected one
	// exactly (kind, output and next state), not just the transition.
	ExactFault bool
	// EquivalentToSpec is set for undetected mutants that are provably
	// indistinguishable from the specification (no test suite could detect
	// them).
	EquivalentToSpec bool
}

// SweepResult aggregates a sweep (experiment E5).
type SweepResult struct {
	Spec    *cfsm.System
	Suite   []cfsm.TestCase
	Reports []MutantReport
	Counts  map[MutantOutcome]int
	// UndetectedEquivalent counts undetected mutants that are equivalent to
	// the specification, i.e. inherently undetectable.
	UndetectedEquivalent int
	// TotalAdditionalTests and TotalAdditionalInputs accumulate the
	// adaptive phase's cost over all detected mutants.
	TotalAdditionalTests  int
	TotalAdditionalInputs int
	Detected              int
}

// SweepOptions configures a sweep run.
type SweepOptions struct {
	// CheckEquivalence controls whether undetected and wrongly-localized
	// mutants are checked for observational equivalence (quadratic-ish;
	// disable in benchmarks).
	CheckEquivalence bool
	// Workers is the number of goroutines diagnosing mutants concurrently.
	// Zero or negative selects runtime.GOMAXPROCS(0). Workers == 1 runs the
	// exact historical serial path. Any worker count produces a
	// byte-identical SweepResult: reports stay in fault-enumeration order
	// and every count is merged deterministically.
	Workers int
	// Registry receives the sweep's telemetry (per-mutant latency histogram,
	// busy-worker gauge, outcome counters, whole-sweep duration). Nil — the
	// default — disables instrumentation.
	Registry *obs.Registry
	// Trace, when non-nil, records a structured trace for the first
	// TraceFailures mutants whose suite run reveals a symptom (a "failing"
	// IUT): each such mutant's diagnosis is re-run with core.WithTrace inside
	// a sweep.mutant span. The tracer is shared by all workers (it is safe
	// for concurrent use); under a parallel sweep the traced mutants are the
	// first N to finish, and spans from different mutants may interleave.
	Trace *trace.Tracer
	// TraceFailures caps how many failing mutants are traced. Zero with a
	// non-nil Trace means 1.
	TraceFailures int
	// Interpreted forces the interpreted reference path: every mutant is a
	// cloned system and every diagnosis passes core.NewSystemEngine
	// explicitly, so no compiled Program is touched. By default the sweep
	// shares the specification's memoised program (internal/compiled)
	// across workers and diagnoses every mutant against a one-cell table
	// overlay instead of a cloned system. The two paths produce byte-
	// identical SweepResults (pinned by differential tests); the sweep falls
	// back to the interpreted path automatically when the system's global
	// state space cannot be packed for the compiled searches.
	Interpreted bool
}

// Metric families of the sweep engine.
const (
	metricSweepDuration  = "cfsmdiag_sweep_duration_seconds"
	metricSweepMutant    = "cfsmdiag_sweep_mutant_seconds"
	metricSweepMutants   = "cfsmdiag_sweep_mutants_total"
	metricSweepBusy      = "cfsmdiag_sweep_workers_busy"
	metricSweepWorkers   = "cfsmdiag_sweep_workers"
	metricSweepAddlTests = "cfsmdiag_sweep_additional_tests_total"
)

// sweepMetrics bundles the sweep's pre-resolved handles; all nil-safe.
type sweepMetrics struct {
	reg      *obs.Registry
	duration *obs.Histogram
	mutant   *obs.Histogram
	busy     *obs.Gauge
	workers  *obs.Gauge
	addl     *obs.Counter
}

func newSweepMetrics(r *obs.Registry) sweepMetrics {
	if r == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		reg:      r,
		duration: r.Histogram(metricSweepDuration, "Wall time of whole mutant sweeps.", obs.DefaultLatencyBuckets),
		mutant:   r.Histogram(metricSweepMutant, "Per-mutant diagnosis latency within a sweep.", obs.DefaultLatencyBuckets),
		busy:     r.Gauge(metricSweepBusy, "Sweep workers currently diagnosing a mutant (utilization against cfsmdiag_sweep_workers)."),
		workers:  r.Gauge(metricSweepWorkers, "Configured worker count of the most recent sweep."),
		addl:     r.Counter(metricSweepAddlTests, "Additional diagnostic tests generated across swept mutants."),
	}
}

// RegisterSweepMetrics pre-registers the sweep's metric families on a
// registry so an exposition endpoint lists them before the first sweep runs.
// No-op on nil.
func RegisterSweepMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	newSweepMetrics(r)
	for o := OutcomeUndetected; o <= OutcomeInconsistent; o++ {
		r.Counter(metricSweepMutants, "Swept mutants by diagnosis outcome.", obs.L("outcome", o.String()))
	}
}

// observe records one mutant's outcome and latency.
func (m sweepMetrics) observe(report MutantReport, elapsed time.Duration) {
	if m.reg == nil {
		return
	}
	m.mutant.Observe(elapsed.Seconds())
	m.addl.Add(int64(report.AdditionalTests))
	m.reg.Counter(metricSweepMutants, "Swept mutants by diagnosis outcome.",
		obs.L("outcome", report.Outcome.String())).Inc()
}

func (o SweepOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// RunSweep injects every single-transition fault into the specification,
// executes the given initial suite against each mutant, runs the full
// diagnosis and classifies the result (experiment E5). It parallelizes over
// runtime.GOMAXPROCS(0) workers; the result is identical to a serial run.
// checkEquivalence is as in SweepOptions.
func RunSweep(spec *cfsm.System, suite []cfsm.TestCase, checkEquivalence bool) (SweepResult, error) {
	return RunSweepOpts(spec, suite, SweepOptions{CheckEquivalence: checkEquivalence})
}

// RunSweepOpts is RunSweep with explicit worker and equivalence options.
//
// The mutant space is embarrassingly parallel: the specification and suite
// are shared read-only (see the cfsm.System concurrency guarantee) and each
// mutant's diagnosis is independent. Mutant systems are built inside the
// workers, one fault at a time, so the sweep never materializes the full
// mutant set. The first diagnosis error — in fault-enumeration order, as in
// the serial run — cancels the remaining work and is returned with the
// deterministic prefix of reports that precede the failing mutant.
func RunSweepOpts(spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions) (SweepResult, error) {
	return RunSweepContext(context.Background(), spec, suite, opts)
}

// RunSweepContext is RunSweepOpts with cancellation: canceling the context
// stops the worker dispatch, aborts in-flight diagnoses at their next oracle
// boundary, and returns ctx.Err() together with the deterministic prefix of
// reports completed before the cancellation.
func RunSweepContext(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions) (SweepResult, error) {
	return runSweepFaults(ctx, spec, suite, fault.Enumerate(spec), opts)
}

// RunSweepRange diagnoses the faults with enumeration indices in [lo, hi) —
// the deterministic fault.Enumerate order — and returns their reports in that
// order. It is the unit of work of the distributed sweep: a cluster worker
// runs one range per lease, and concatenating the reports of the ranges
// [0,k), [k,2k), … reproduces a whole-space sweep byte for byte (the merge
// itself is MergeReports). Out-of-range bounds are clamped; an inverted
// range is empty.
func RunSweepRange(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions, lo, hi int) ([]MutantReport, error) {
	faults := fault.Enumerate(spec)
	if lo < 0 {
		lo = 0
	}
	if hi > len(faults) {
		hi = len(faults)
	}
	if lo >= hi {
		return nil, nil
	}
	res, err := runSweepFaults(ctx, spec, suite, faults[lo:hi], opts)
	return res.Reports, err
}

// MergeReports folds per-mutant reports — already in fault-enumeration
// order — into the aggregate SweepResult, exactly as the local sweep loop
// does. The cluster coordinator uses it to merge worker-pushed ranges into a
// result byte-identical to a single-process sweep.
func MergeReports(spec *cfsm.System, suite []cfsm.TestCase, reports []MutantReport) SweepResult {
	res := SweepResult{
		Spec:   spec,
		Suite:  suite,
		Counts: make(map[MutantOutcome]int),
	}
	for _, r := range reports {
		res.add(r)
	}
	return res
}

// runSweepFaults is the sweep engine over an explicit fault list: the whole
// enumeration for the local sweep, one contiguous range for a cluster worker.
func runSweepFaults(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, faults []fault.Fault, opts SweepOptions) (SweepResult, error) {
	res := SweepResult{
		Spec:   spec,
		Suite:  suite,
		Counts: make(map[MutantOutcome]int),
	}
	met := newSweepMetrics(opts.Registry)
	traceBudget := int64(0)
	if opts.Trace != nil {
		traceBudget = int64(opts.TraceFailures)
		if traceBudget <= 0 {
			traceBudget = 1
		}
	}
	workers := opts.workers()
	met.workers.Set(int64(workers))
	sweepStart := time.Now()
	defer func() { met.duration.Observe(time.Since(sweepStart).Seconds()) }()

	// Every worker shares the specification's memoised program
	// (compiled.ProgramFor) and realizes mutants as one-cell overlays. A nil
	// prog selects the interpreted path (forced, or state space too large to
	// pack). The test suite is likewise compiled once per sweep — expected
	// observations, symptom transitions and conflict prefixes precomputed —
	// and the immutable result shared by every worker engine, so no mutant
	// ever re-simulates the specification.
	var prog *compiled.Program
	var csuite *compiled.Suite
	if !opts.Interpreted {
		if p := compiled.ProgramFor(spec); p.Packable() {
			prog, csuite = p, compiled.NewSuite(p, suite)
		}
	}
	// workerEngine returns one goroutine's engine and oracle runner over the
	// shared program: both reuse scratch buffers and must not cross
	// goroutines. The compiled suite is immutable and shared by all workers.
	workerEngine := func() (*compiled.Engine, *compiled.Runner) {
		eng, _ := compiled.EngineFor(prog) // prog is packable
		eng.SetSuite(csuite)
		return eng, prog.NewRunner()
	}

	if workers == 1 {
		if prog != nil {
			eng, oracleR := workerEngine()
			for _, f := range faults {
				ov, ok := prog.OverlayFor(f)
				if !ok {
					continue // mirrors fault.ForEachMutant's apply-skip
				}
				if err := ctx.Err(); err != nil {
					return res, err
				}
				met.busy.Inc()
				start := time.Now()
				report, err := diagnoseMutantCompiled(ctx, spec, suite, eng, oracleR, f, ov, opts, &traceBudget)
				met.busy.Dec()
				if err != nil {
					if ctxErr := ctx.Err(); ctxErr != nil {
						return res, ctxErr
					}
					return res, err
				}
				met.observe(report, time.Since(start))
				res.add(report)
			}
			return res, nil
		}
		err := fault.ForEachMutantOf(spec, faults, func(m fault.Mutant) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			met.busy.Inc()
			start := time.Now()
			report, err := diagnoseMutant(ctx, spec, suite, m, opts, &traceBudget)
			met.busy.Dec()
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return ctxErr
				}
				return err
			}
			met.observe(report, time.Since(start))
			res.add(report)
			return nil
		})
		return res, err
	}

	type outcome struct {
		done    bool // the job ran (diagnosed, failed, or apply-skipped)
		skipped bool // fault could not be applied; mirrors ForEachMutant's skip
		report  MutantReport
		err     error
	}
	results := make([]outcome, len(faults))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range faults {
			select {
			case jobs <- i:
			case <-wctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var eng *compiled.Engine
			var oracleR *compiled.Runner
			if prog != nil {
				eng, oracleR = workerEngine()
			}
			for idx := range jobs {
				var report MutantReport
				var err error
				if eng != nil {
					ov, ok := prog.OverlayFor(faults[idx])
					if !ok {
						// Mirrors the skip in fault.ForEachMutant; cannot
						// happen for Enumerate's output.
						results[idx] = outcome{done: true, skipped: true}
						continue
					}
					met.busy.Inc()
					start := time.Now()
					report, err = diagnoseMutantCompiled(wctx, spec, suite, eng, oracleR, faults[idx], ov, opts, &traceBudget)
					met.busy.Dec()
					results[idx] = outcome{done: true, report: report, err: err}
					if err != nil {
						cancel()
						return
					}
					met.observe(report, time.Since(start))
					continue
				}
				sys, err := faults[idx].Apply(spec)
				if err != nil {
					// Mirrors the skip in fault.ForEachMutant; cannot happen
					// for Enumerate's output.
					results[idx] = outcome{done: true, skipped: true}
					continue
				}
				m := fault.Mutant{Fault: faults[idx], System: sys}
				met.busy.Inc()
				start := time.Now()
				report, err = diagnoseMutant(wctx, spec, suite, m, opts, &traceBudget)
				met.busy.Dec()
				// Each worker writes only its own index; no lock needed.
				results[idx] = outcome{done: true, report: report, err: err}
				if err != nil {
					cancel()
					return
				}
				met.observe(report, time.Since(start))
			}
		}()
	}
	wg.Wait()

	// Deterministic merge in fault-enumeration order. Jobs are dispatched in
	// index order, so when a worker errored every lower-index job has
	// completed: the loop below reproduces exactly the serial prefix and the
	// serial first-error. On external cancellation the contiguous completed
	// prefix is merged and ctx.Err() returned.
	for i := range results {
		if !results[i].done {
			break // job never ran: external cancellation hole
		}
		if results[i].skipped {
			continue
		}
		if results[i].err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, results[i].err
		}
		res.add(results[i].report)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// add folds one mutant report into the aggregate, exactly as the historical
// serial loop did.
func (res *SweepResult) add(report MutantReport) {
	if report.Outcome == OutcomeUndetected {
		if report.EquivalentToSpec {
			res.UndetectedEquivalent++
		}
	} else {
		res.Detected++
		res.TotalAdditionalTests += report.AdditionalTests
		res.TotalAdditionalInputs += report.AdditionalIn
	}
	res.Counts[report.Outcome]++
	res.Reports = append(res.Reports, report)
}

// diagnoseMutant runs the full Steps 1–6 diagnosis of one mutant against the
// specification on the interpreted reference engine and classifies the
// outcome. It is pure with respect to shared state — spec and suite are
// read-only — and therefore safe to call from concurrent sweep workers.
func diagnoseMutant(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, m fault.Mutant, opts SweepOptions, traceBudget *int64) (MutantReport, error) {
	report := MutantReport{Fault: m.Fault}
	oracle := &core.SystemOracle{Sys: m.System}
	loc, err := core.DiagnoseContext(ctx, spec, suite, oracle, core.WithRegistry(opts.Registry),
		core.WithEngine(core.NewSystemEngine(spec)))
	if err != nil {
		return report, fmt.Errorf("diagnose %s: %w", m.Fault.Describe(spec), err)
	}
	report.AdditionalTests = oracle.Tests - len(suite)
	report.AdditionalIn = oracle.Inputs
	classifyOutcome(loc, m.Fault, &report, opts.CheckEquivalence,
		func() bool { return testgen.SystemsEquivalent(spec, m.System) },
		func(diagnosed fault.Fault) bool { return diagnosedEquivalent(spec, diagnosed, m.System) })
	if opts.Trace != nil && report.Outcome != OutcomeUndetected && atomic.AddInt64(traceBudget, -1) >= 0 {
		traceMutant(ctx, spec, suite, m, report.Outcome, opts.Trace)
	}
	return report, nil
}

// diagnoseMutantCompiled is diagnoseMutant on the compiled substrate: the
// injected fault is realized as a table overlay on the oracle runner instead
// of a cloned system, and the analysis itself runs on the worker's compiled
// engine. Verdicts, counts and classification are byte-identical to the
// interpreted path.
func diagnoseMutantCompiled(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, eng *compiled.Engine, oracleR *compiled.Runner, f fault.Fault, ov compiled.Overlay, opts SweepOptions, traceBudget *int64) (MutantReport, error) {
	report := MutantReport{Fault: f}
	oracleR.SetOverlay(ov)
	oracle := &compiled.Oracle{R: oracleR}
	loc, err := core.DiagnoseContext(ctx, spec, suite, oracle, core.WithRegistry(opts.Registry), core.WithEngine(eng))
	if err != nil {
		return report, fmt.Errorf("diagnose %s: %w", f.Describe(spec), err)
	}
	report.AdditionalTests = oracle.Tests - len(suite)
	report.AdditionalIn = oracle.Inputs
	classifyOutcome(loc, f, &report, opts.CheckEquivalence,
		func() bool { return eng.FaultEquivalentToSpec(f) },
		func(diagnosed fault.Fault) bool { return eng.FaultsEquivalent(diagnosed, f) })
	if opts.Trace != nil && report.Outcome != OutcomeUndetected && atomic.AddInt64(traceBudget, -1) >= 0 {
		// The traced re-run stays on the interpreted path: it needs a mutant
		// system for the oracle and is off the hot path by construction.
		if sys, err := f.Apply(spec); err == nil {
			traceMutant(ctx, spec, suite, fault.Mutant{Fault: f, System: sys}, report.Outcome, opts.Trace)
		}
	}
	return report, nil
}

// classifyOutcome folds a localization verdict into the report, with the
// equivalence predicates abstracted so the interpreted and compiled paths
// classify identically: specEquiv decides mutant ≡ specification for
// undetected mutants, diagEquiv decides diagnosed-fault ≡ injected-fault for
// wrong localizations.
func classifyOutcome(loc *core.Localization, injected fault.Fault, report *MutantReport, checkEquivalence bool, specEquiv func() bool, diagEquiv func(diagnosed fault.Fault) bool) {
	switch loc.Verdict {
	case core.VerdictNoFault:
		report.Outcome = OutcomeUndetected
		if checkEquivalence {
			report.EquivalentToSpec = specEquiv()
		}
	case core.VerdictLocalized:
		switch {
		case loc.Fault.Ref == injected.Ref:
			report.Outcome = OutcomeLocalizedCorrect
			report.ExactFault = *loc.Fault == injected
		default:
			report.Outcome = OutcomeLocalizedWrong
			if checkEquivalence && diagEquiv(*loc.Fault) {
				report.Outcome = OutcomeLocalizedEquivalent
			}
		}
	case core.VerdictAmbiguous:
		report.Outcome = OutcomeAmbiguousMissesTruth
		for _, r := range loc.Remaining {
			if r.Ref == injected.Ref {
				report.Outcome = OutcomeAmbiguousContainsTruth
				break
			}
		}
	default:
		report.Outcome = OutcomeInconsistent
	}
}

// traceMutant re-runs one detected mutant's diagnosis with structured tracing
// enabled, inside a sweep.mutant span, on the interpreted reference engine.
// The diagnosis is deterministic, so the re-run repeats exactly the result
// just classified; tracing the second pass keeps the tracer entirely off the
// untraced mutants' path.
func traceMutant(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, m fault.Mutant, out MutantOutcome, tr *trace.Tracer) {
	span := tr.Begin(trace.KindSweepMutant,
		trace.A("fault", m.Fault.Describe(spec)),
		trace.A("outcome", out.String()))
	if _, err := core.DiagnoseContext(ctx, spec, suite, &core.SystemOracle{Sys: m.System}, core.WithTrace(tr),
		core.WithEngine(core.NewSystemEngine(spec))); err != nil {
		span.End(trace.A("error", err.Error()))
		return
	}
	span.End()
}

func diagnosedEquivalent(spec *cfsm.System, diagnosed fault.Fault, mutant *cfsm.System) bool {
	sys, err := diagnosed.Apply(spec)
	if err != nil {
		return false
	}
	return testgen.SystemsEquivalent(sys, mutant)
}
