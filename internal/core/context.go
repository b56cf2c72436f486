package core

import (
	"context"
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// ContextOracle is an Oracle that can honor cancellation while executing a
// single test case (e.g. an oracle driving a remote implementation). The
// context-aware entry points prefer ExecuteContext when the oracle provides
// it; plain Oracles are still canceled between test cases.
type ContextOracle interface {
	Oracle
	ExecuteContext(ctx context.Context, tc cfsm.TestCase) ([]cfsm.Observation, error)
}

// LocalizeContext is Localize with cancellation: the context is checked
// before every oracle execution and at every refinement-round boundary, so
// canceling it aborts an in-flight adaptive localization (Step 6 loop) with
// an error satisfying errors.Is(err, ctx.Err()).
func LocalizeContext(ctx context.Context, a *Analysis, oracle Oracle, opts ...Option) (*Localization, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	return localize(ctx, a, oracle, &cfg)
}

// DiagnoseContext is Diagnose with cancellation: suite execution, analysis
// and localization all stop at the next oracle or round boundary once the
// context is done.
func DiagnoseContext(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, oracle Oracle, opts ...Option) (*Localization, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	observed, err := executeSuite(ctx, suite, oracle, newMetrics(cfg.registry))
	if err != nil {
		return nil, err
	}
	a, err := Analyze(spec, suite, observed, opts...)
	if err != nil {
		return nil, err
	}
	return localize(ctx, a, oracle, &cfg)
}

// ExecuteSuite runs every test case of the suite through the oracle and
// returns the observations in suite order. The oracle is decorated exactly
// as in Step 6, so the context is checked before every case (and handed to
// a ContextOracle) and each case counts toward the oracle query and input
// metrics of the configured registry.
func ExecuteSuite(ctx context.Context, suite []cfsm.TestCase, oracle Oracle, opts ...Option) ([][]cfsm.Observation, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	return executeSuite(ctx, suite, oracle, newMetrics(cfg.registry))
}

// executeSuite is the one place a suite is executed.
func executeSuite(ctx context.Context, suite []cfsm.TestCase, oracle Oracle, m metrics) ([][]cfsm.Observation, error) {
	wrapped := wrapOracle(oracle, ctx, m)
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := wrapped.Execute(tc)
		if err != nil {
			return nil, fmt.Errorf("core: execute %s: %w", tc.Name, err)
		}
		observed[i] = obs
	}
	return observed, nil
}

// wrapOracle decorates an oracle with context + metrics exactly once; an
// already-wrapped oracle is rebound to the current context instead of being
// double-counted.
func wrapOracle(o Oracle, ctx context.Context, m metrics) Oracle {
	if w, ok := o.(obsOracle); ok {
		return obsOracle{inner: w.inner, ctx: ctx, m: m}
	}
	return obsOracle{inner: o, ctx: ctx, m: m}
}
