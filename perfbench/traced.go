package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/testgen"
)

// The traced replay feeds a workload's inputs in-process through the same
// public calls the server makes and times each call. It uses core's default
// engine; the only thing it adds to the pipeline is a pass-through timer
// around the caller-supplied core.Oracle, so it follows whatever engine the
// program picks. Spans are kept as per-layer totals in memory.

// spans are per-layer totals. A layer's self time excludes the oracle time
// spent inside it.
type spans struct {
	resolve                  time.Duration // model resolution per request, parses included
	parse, decode            time.Duration // parsing and decoding on first sighting
	parseCalls, decodeCalls  int
	suite, step6             time.Duration // oracle time in the suite run and in Step 6
	analyze, localize        time.Duration // core.Analyze, core.LocalizeContext (incl. oracle)
	portsAnalyze, portsLocal time.Duration // ports.AnalyzeObserved, ports.LocalizeContext (incl. oracle)
	portsStep6               time.Duration // oracle time inside ports.LocalizeContext
	wall                     time.Duration // per-request pipeline wall time
	requests, portRequests   int
	queries, inputs          int
	additionalTests, cleared int
	locallyAmbiguousRequests int
	mismatches               int
}

// timedOracle is the pass-through timer around the IUT's oracle; into
// selects which span the next executions are charged to.
type timedOracle struct {
	inner core.Oracle
	into  *time.Duration
	sp    *spans
}

func (o *timedOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	t0 := time.Now()
	obs, err := o.inner.Execute(tc)
	*o.into += time.Since(t0)
	o.sp.queries++
	o.sp.inputs += len(tc.Inputs)
	return obs, err
}

// replayer resolves models as the server's registry does (parse or decode on
// first sighting, reuse afterwards) and runs the diagnosis pipeline.
type replayer struct {
	in   *diagInputs
	docs map[string]*cfsm.System // inline documents by their bytes
	iuts []*cfsm.System          // decoded uploads (rand-diagnose)
	spec *cfsm.System
	reg  *obs.Registry
	sp   *spans // nil: untraced
	sink spans  // stage target when untraced, never read
}

func newReplayer(in *diagInputs, sp *spans) (*replayer, error) {
	r := &replayer{in: in, docs: map[string]*cfsm.System{}, reg: obs.New(), sp: sp}
	if in.specBin == nil {
		return r, nil
	}
	// rand-diagnose: the uploads are decoded once, as POST /v1/models does.
	decode := func(b []byte) (*cfsm.System, error) {
		t0 := time.Now()
		sys, err := compiled.DecodeSystem(b)
		if sp != nil {
			sp.decode += time.Since(t0)
			sp.decodeCalls++
		}
		return sys, err
	}
	var err error
	if r.spec, err = decode(in.specBin); err != nil {
		return nil, err
	}
	for _, c := range in.iuts {
		sys, err := decode(c.bin)
		if err != nil {
			return nil, err
		}
		r.iuts = append(r.iuts, sys)
	}
	return r, nil
}

func (r *replayer) doc(b []byte) (*cfsm.System, error) {
	if sys, ok := r.docs[string(b)]; ok {
		return sys, nil
	}
	t0 := time.Now()
	sys, err := cfsm.ParseSystem(b)
	if r.sp != nil {
		r.sp.parse += time.Since(t0)
		r.sp.parseCalls++
	}
	if err != nil {
		return nil, err
	}
	r.docs[string(b)] = sys
	return sys, nil
}

// replayed is what the HTTP answer must agree with.
type replayed struct {
	verdict       string
	tests, inputs int
}

// diagnose runs one request's pipeline: model resolution, the suite through
// the oracle, Steps 1-5 and Step 6, globally or through the port map.
func (r *replayer) diagnose(ctx context.Context, v variant) (replayed, error) {
	t0 := time.Now()
	spec, iut := r.spec, (*cfsm.System)(nil)
	var err error
	if r.in.specBin == nil {
		if spec, err = r.doc(r.in.specDoc); err != nil {
			return replayed{}, err
		}
		if iut, err = r.doc(r.in.iuts[v.iut].doc); err != nil {
			return replayed{}, err
		}
	} else {
		iut = r.iuts[v.iut]
	}
	if r.sp != nil {
		r.sp.resolve += time.Since(t0)
	}
	base := &core.SystemOracle{Sys: iut}
	var oracle core.Oracle = base
	var timer *timedOracle
	acc := r.sp
	if acc == nil {
		acc = &r.sink
	}
	if r.sp != nil {
		timer = &timedOracle{inner: base, into: &r.sp.suite, sp: r.sp}
		oracle = timer
	}
	// stage times fn and charges it to *into when tracing.
	stage := func(into *time.Duration, fn func() error) error {
		if r.sp == nil {
			return fn()
		}
		t := time.Now()
		err := fn()
		*into += time.Since(t)
		return err
	}
	suite := r.in.suite
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		if observed[i], err = oracle.Execute(tc); err != nil {
			return replayed{}, fmt.Errorf("execute %s: %w", tc.Name, err)
		}
	}
	coreOpts := []core.Option{core.WithRegistry(r.reg)}
	var loc *core.Localization
	if v.ports {
		popts := []ports.Option{ports.WithCoreOptions(coreOpts...), ports.WithRegistry(r.reg)}
		var a *core.Analysis
		err = stage(&acc.portsAnalyze, func() (err error) {
			a, _, err = ports.AnalyzeObserved(spec, suite, observed, r.in.pm, popts...)
			return err
		})
		if err != nil {
			return replayed{}, err
		}
		if timer != nil {
			timer.into = &acc.portsStep6
		}
		err = stage(&acc.portsLocal, func() (err error) {
			loc, _, err = ports.LocalizeContext(ctx, a, oracle, r.in.pm, popts...)
			return err
		})
	} else {
		var a *core.Analysis
		err = stage(&acc.analyze, func() (err error) {
			a, err = core.Analyze(spec, suite, observed, coreOpts...)
			return err
		})
		if err != nil {
			return replayed{}, err
		}
		if timer != nil {
			timer.into = &acc.step6
		}
		err = stage(&acc.localize, func() (err error) {
			loc, err = core.LocalizeContext(ctx, a, oracle, coreOpts...)
			return err
		})
	}
	if err != nil {
		return replayed{}, err
	}
	if sp := r.sp; sp != nil {
		sp.wall += time.Since(t0)
		sp.requests++
		if v.ports {
			sp.portRequests++
			if len(loc.LocallyAmbiguous) > 0 {
				sp.locallyAmbiguousRequests++
			}
		}
		sp.additionalTests += len(loc.AdditionalTests)
		sp.cleared += len(loc.Cleared)
	}
	return replayed{verdict: loc.Verdict.String(), tests: base.Tests, inputs: base.Inputs}, nil
}

// replayLimit bounds how many open-loop requests the traced run replays, to
// about a second of pipeline work per pass.
func replayLimit(in *diagInputs) int {
	if in.specBin != nil {
		return 60
	}
	return 2000
}

// replayDiagnose replays reqs once, traced when sp is non-nil, checking
// each result against the HTTP answer to the same request.
func replayDiagnose(in *diagInputs, reqs []outcome, ans *answers, sp *spans) (time.Duration, error) {
	r, err := newReplayer(in, sp)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	t0 := time.Now()
	for _, out := range reqs {
		got, err := r.diagnose(ctx, in.variants[out.variant])
		if err != nil {
			return 0, err
		}
		if sp == nil {
			continue
		}
		var want diagnosisAnswer
		if out.status != 200 || json.Unmarshal(ans.bodies[out.answer], &want) != nil ||
			want.Verdict != got.verdict || want.TotalTests != got.tests || want.TotalInputs != got.inputs {
			sp.mismatches++
		}
	}
	return time.Since(t0), nil
}

// traceDiagnose runs the untraced and traced replays alternately, twice
// each, and reports the per-layer metrics.
func traceDiagnose(in *diagInputs, reqs []outcome, ans *answers, handlerMS float64, rep *report) error {
	sp := &spans{}
	var plain, traced time.Duration
	var before, after runtime.MemStats
	for pass := 0; pass < 2; pass++ {
		d, err := replayDiagnose(in, reqs, ans, nil)
		if err != nil {
			return err
		}
		plain += d
		runtime.ReadMemStats(&before)
		d, err = replayDiagnose(in, reqs, ans, sp)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		traced += d
	}
	n := float64(sp.requests)
	global := float64(sp.requests - sp.portRequests)
	portN := float64(sp.portRequests)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	perCall := func(d time.Duration, calls int) float64 { return ratio(ms(d), float64(calls)) }

	rep.set("cfsm.parse_ms", "ms", perCall(sp.parse, sp.parseCalls))
	rep.set("compiled.decode_ms", "ms", perCall(sp.decode, sp.decodeCalls))
	rep.set("core.analyze_ms", "ms", ratio(ms(sp.analyze), global))
	rep.set("core.localize_self_ms", "ms", ratio(ms(sp.localize-sp.step6), global))
	rep.set("core.tests_per_cleared", "ratio", ratio(float64(sp.additionalTests), float64(sp.cleared)))
	rep.set("oracle.suite_ms", "ms", ratio(ms(sp.suite), n))
	rep.set("oracle.step6_ms", "ms", ratio(ms(sp.step6+sp.portsStep6), n))
	rep.set("oracle.queries_per_req", "count", ratio(float64(sp.queries), n))
	rep.set("oracle.inputs_per_req", "count", ratio(float64(sp.inputs), n))
	rep.set("ports.analyze_ms", "ms", ratio(ms(sp.portsAnalyze), portN))
	rep.set("ports.localize_ms", "ms", ratio(ms(sp.portsLocal-sp.portsStep6), portN))
	rep.set("ports.locally_ambiguous_frac", "ratio", ratio(float64(sp.locallyAmbiguousRequests), portN))
	pipeline := ratio(ms(sp.wall), n)
	rep.set("server.residual_ms", "ms", handlerMS-pipeline)
	rep.set("pipeline.allocs_per_req", "count", float64(after.Mallocs-before.Mallocs)/float64(len(reqs)))
	rep.set("pipeline.bytes_per_req", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(reqs)))
	covered := sp.resolve + sp.decode + sp.suite + sp.analyze + sp.localize + sp.portsAnalyze + sp.portsLocal
	// Decoding happens at upload, outside the per-request pipeline.
	wall := sp.wall + sp.decode
	rep.coverage = ratio(covered.Seconds(), wall.Seconds())
	rep.set("trace.coverage_frac", "ratio", rep.coverage)
	rep.set("trace.overhead_frac", "ratio", traced.Seconds()/plain.Seconds()-1)
	if err := probes(in.spec, rep, true); err != nil {
		return err
	}
	rep.mismatches = sp.mismatches
	rep.notef("traced replay: %d requests (%d port-mapped) x2, %d mismatches with the HTTP answers, coverage %.3f",
		len(reqs), sp.portRequests/2, sp.mismatches, rep.coverage)
	if sp.mismatches > 0 {
		rep.Correct = false
	}
	return nil
}

// probes time layer calls that the traced pipeline does not make itself, on
// the workload's own specification: compilation and fault enumeration
// (which a sweep does internally, and /v1/diagnose not at all), and, when
// tour is set, transition-tour generation. Each is repeated for at least
// 50ms and reported as a per-call mean.
func probes(spec *cfsm.System, rep *report, tour bool) error {
	probe := func(fn func() error) (float64, error) {
		var n int
		t0 := time.Now()
		for n == 0 || time.Since(t0) < 50*time.Millisecond {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		return time.Since(t0).Seconds() * 1000 / float64(n), nil
	}
	compile, err := probe(func() error { _, err := compiled.Compile(spec); return err })
	if err != nil {
		return err
	}
	enumerate, _ := probe(func() error { fault.Enumerate(spec); return nil })
	rep.set("compiled.compile_ms", "ms", compile)
	rep.set("fault.enumerate_ms", "ms", enumerate)
	if tour {
		ms, _ := probe(func() error { testgen.Tour(spec, 0); return nil })
		rep.set("testgen.tour_ms", "ms", ms)
	}
	return nil
}
