package ports

import (
	"context"
	"fmt"
	"strconv"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/trace"
)

// Option configures the distributed-observation pipeline entry points.
type Option func(*config)

type config struct {
	registry *obs.Registry
	tracer   *trace.Tracer
	coreOpts []core.Option
}

func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithRegistry attaches an observability registry to the whole pipeline:
// the ports-layer metric families (see metrics.go) and, forwarded as
// core.WithRegistry, the core pipeline's.
func WithRegistry(r *obs.Registry) Option {
	return func(c *config) {
		c.registry = r
		c.coreOpts = append(c.coreOpts, core.WithRegistry(r))
	}
}

// WithTrace attaches a structured tracer to the whole pipeline: the ports.*
// event kinds, the core analysis and localization events (forwarded as
// core.WithTrace) and, in DiagnoseContext, the replay header.
func WithTrace(t *trace.Tracer) Option {
	return func(c *config) {
		c.tracer = t
		c.coreOpts = append(c.coreOpts, core.WithTrace(t))
	}
}

// WithCoreOptions forwards options to the underlying core.Analyze and
// core.Localize calls (engine selection, registries, escalation switches,
// test budgets). The observation matcher is managed by this package and must
// not be supplied here.
func WithCoreOptions(opts ...core.Option) Option {
	return func(c *config) { c.coreOpts = append(c.coreOpts, opts...) }
}

// Matcher returns the core.ObsMatcher realizing distributed observation for
// this port map: two observation sequences are equal iff their per-port
// projections coincide — i.e. no local observer can tell them apart. With
// one deterministic prediction per hypothesis, "Matcher-equal to the
// recorded sequence" is exactly "some global interleaving consistent with
// the recorded local traces matches the prediction".
func (m Map) Matcher() core.ObsMatcher { return matcher{m: m} }

type matcher struct{ m Map }

func (x matcher) Equal(predicted, recorded []cfsm.Observation) bool {
	return Project(x.m, predicted).Equal(Project(x.m, recorded))
}

func (x matcher) Mismatch(predicted, recorded []cfsm.Observation) string {
	// Both projections come from the same map, so they list the same
	// observers in the same order.
	pp, rp := Project(x.m, predicted), Project(x.m, recorded)
	for i := range pp {
		if pp[i].Equal(rp[i]) {
			continue
		}
		return fmt.Sprintf("observer %s recorded %q, hypothesis predicts %q",
			pp[i].Port, Projection{rp[i]}.String(), Projection{pp[i]}.String())
	}
	return "projections agree at every observer"
}

// Equal reports whether two local traces record the same events.
func (lt LocalTrace) Equal(o LocalTrace) bool {
	if lt.Port != o.Port || len(lt.Events) != len(o.Events) {
		return false
	}
	for i := range lt.Events {
		if lt.Events[i] != o.Events[i] {
			return false
		}
	}
	return true
}

// Report summarizes what distributed observation cost a diagnosis: how much
// global order the observers lost and where the pipeline had to degrade.
type Report struct {
	// Single reports the degenerate single-observer map, under which the
	// classical pipeline ran unchanged and the remaining fields stay zero.
	Single bool
	// Ports lists the observer names, sorted.
	Ports []string
	// Cases counts the analyzed test cases.
	Cases int
	// AmbiguousCases counts symptomatic cases whose projections admit more
	// than one consistent interleaving — the observers' records did not pin
	// down which global sequence actually happened.
	AmbiguousCases int
	// InterleavingsExplored totals the consistent-interleaving counts the
	// matcher reasoned over across all cases, saturating at MaxInterleavings.
	InterleavingsExplored uint64
	// LocallyAmbiguousCandidates lists candidate transitions Step 6 could
	// separate under global observation but not in any projection: every
	// distinguishing test differs only in silent slots, which no local
	// observer sees. Their hypotheses stay in Localization.Remaining rather
	// than risking a wrong conviction.
	LocallyAmbiguousCandidates []cfsm.Ref
}

// AnalyzeObserved runs the paper's Steps 1–5 under distributed observation.
// The recorded sequences are the raw global observations (e.g. an oracle's
// answers); only their per-port projections are treated as known. For each
// case the maximal consistent prefix of the specification's expectation is
// computed (Match) and its canonical completion is fed to core.Analyze with
// the map's projection matcher installed, so that a symptom exists only when
// *no* consistent interleaving matches the specification, conflict sets
// cover the union over all consistent interleavings, and a hypothesis
// survives verification iff some consistent interleaving of its prediction
// matches the observed local traces.
//
// Under the default single-observer map the function short-circuits to
// core.Analyze on the raw sequences, byte for byte.
func AnalyzeObserved(spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, pm Map, opts ...Option) (*core.Analysis, *Report, error) {
	cfg := newConfig(opts)
	rep := &Report{Single: pm.Single(), Ports: pm.PortNames(), Cases: len(suite)}
	if pm.Single() {
		a, err := core.Analyze(spec, suite, observed, cfg.coreOpts...)
		return a, rep, err
	}
	if len(observed) != len(suite) {
		return nil, rep, fmt.Errorf("ports: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	met := newMetrics(cfg.registry)
	completions := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		if len(observed[i]) != len(tc.Inputs) {
			return nil, rep, fmt.Errorf("ports: %d observations for %d inputs of %s", len(observed[i]), len(tc.Inputs), tc.Name)
		}
		expected, err := spec.Run(tc)
		if err != nil {
			return nil, rep, fmt.Errorf("ports: simulate %s: %w", tc.Name, err)
		}
		p := Project(pm, observed[i])
		cfg.tracer.Emit(trace.KindPortsProject,
			trace.KV{K: "case", V: tc.Name},
			trace.KV{K: "projection", V: p.String()})
		res, err := Match(pm, tc, expected, p)
		if err != nil {
			return nil, rep, err
		}
		completions[i] = res.Completion
		rep.InterleavingsExplored = satAdd(rep.InterleavingsExplored, res.Interleavings)
		addSaturating(met.interleavings, res.Interleavings)
		if !res.Full && res.Ambiguous {
			rep.AmbiguousCases++
			met.ambiguous.Inc()
		}
		cfg.tracer.Emit(trace.KindPortsMatch,
			trace.KV{K: "case", V: tc.Name},
			trace.KV{K: "prefix", V: strconv.Itoa(res.L)},
			trace.KV{K: "full", V: strconv.FormatBool(res.Full)},
			trace.KV{K: "interleavings", V: strconv.FormatUint(res.Interleavings, 10)})
		// With tracing on, cross-check the linear-time matcher against the
		// bounded explicit enumeration and record the union conflict set the
		// symptomatic case implies.
		if !res.Full && cfg.tracer.Enabled() {
			if cl, err := Closure(spec, pm, tc, p, DefaultClosureLimit); err == nil {
				cfg.tracer.Emit(trace.KindPortsClosure,
					trace.KV{K: "case", V: tc.Name},
					trace.KV{K: "explored", V: strconv.Itoa(cl.Explored)},
					trace.KV{K: "truncated", V: strconv.FormatBool(cl.Truncated)},
					trace.KV{K: "conflict", V: strconv.Itoa(len(cl.Refs))})
			}
		}
	}
	coreOpts := append(append([]core.Option(nil), cfg.coreOpts...), core.WithObsMatcher(pm.Matcher()))
	a, err := core.Analyze(spec, suite, completions, coreOpts...)
	return a, rep, err
}

// Localize runs the paper's Step 6 under distributed observation: the oracle
// is wrapped so the diagnoser sees only canonical re-interleavings of the
// observed projections, hypothesis elimination compares projections through
// the map's matcher, and candidates whose surviving hypotheses are locally
// indistinguishable degrade to the inconclusive taxonomy instead of a wrong
// conviction (they are reported in the Report and in
// Localization.LocallyAmbiguous). Under the single-observer map it
// short-circuits to core.Localize unchanged.
func Localize(a *core.Analysis, oracle core.Oracle, pm Map, opts ...Option) (*core.Localization, *Report, error) {
	return LocalizeContext(context.Background(), a, oracle, pm, opts...)
}

// LocalizeContext is Localize with cancellation, mirroring
// core.LocalizeContext: the context is honored at every oracle boundary of
// the adaptive loop.
func LocalizeContext(ctx context.Context, a *core.Analysis, oracle core.Oracle, pm Map, opts ...Option) (*core.Localization, *Report, error) {
	cfg := newConfig(opts)
	rep := &Report{Single: pm.Single(), Ports: pm.PortNames(), Cases: len(a.Suite)}
	if pm.Single() {
		loc, err := core.LocalizeContext(ctx, a, oracle, cfg.coreOpts...)
		return loc, rep, err
	}
	met := newMetrics(cfg.registry)
	wrapped := &Oracle{Inner: oracle, Map: pm}
	coreOpts := append(append([]core.Option(nil), cfg.coreOpts...), core.WithObsMatcher(pm.Matcher()))
	loc, err := core.LocalizeContext(ctx, a, wrapped, coreOpts...)
	if loc != nil {
		rep.LocallyAmbiguousCandidates = append([]cfsm.Ref(nil), loc.LocallyAmbiguous...)
		met.locallyUndist.Add(int64(len(loc.LocallyAmbiguous)))
		for _, r := range loc.LocallyAmbiguous {
			cfg.tracer.Emit(trace.KindPortsMatch,
				trace.KV{K: "candidate", V: r.Name},
				trace.KV{K: "outcome", V: "locally_ambiguous"})
		}
	}
	return loc, rep, err
}

// Diagnose is DiagnoseContext without cancellation.
func Diagnose(spec *cfsm.System, suite []cfsm.TestCase, oracle core.Oracle, pm Map, opts ...Option) (*core.Localization, *Report, error) {
	return DiagnoseContext(context.Background(), spec, suite, oracle, pm, opts...)
}

// DiagnoseContext is the end-to-end diagnosis every production caller runs:
// execute the suite through the oracle (core.ExecuteSuite), record the
// replay header when a tracer is attached, analyze the projections
// (AnalyzeObserved), then localize adaptively (LocalizeContext). Callers
// without a port map pass Default, under which every phase is the classical
// pipeline byte for byte. Suite execution, analysis and localization all
// stop at the next oracle or round boundary once the context is done. The
// returned report merges both phases.
func DiagnoseContext(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, oracle core.Oracle, pm Map, opts ...Option) (*core.Localization, *Report, error) {
	cfg := newConfig(opts)
	observed, err := core.ExecuteSuite(ctx, suite, oracle, cfg.coreOpts...)
	if err != nil {
		return nil, nil, err
	}
	// The replay header (spec, suite, observed outputs) goes in front of the
	// analysis events, so the trace is a self-contained recorded run.
	if err := replay.Record(cfg.tracer, spec, suite, observed); err != nil {
		return nil, nil, err
	}
	a, rep, err := AnalyzeObserved(spec, suite, observed, pm, opts...)
	if err != nil {
		return nil, rep, err
	}
	loc, lrep, err := LocalizeContext(ctx, a, oracle, pm, opts...)
	if lrep != nil {
		rep.LocallyAmbiguousCandidates = lrep.LocallyAmbiguousCandidates
	}
	return loc, rep, err
}
