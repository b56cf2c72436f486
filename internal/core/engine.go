package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

// Engine abstracts the execution substrate behind the diagnosis pipeline's
// hot inner operations: hypothesis verification (explains), behavioural
// variant execution, and the Step-6 transfer/distinguishing searches. The
// pipeline's control flow — symptom extraction, conflict and candidate set
// construction, the refinement rounds, escalations and verdicts — never
// depends on which engine runs underneath, so two engines over the same
// specification must produce byte-for-byte identical Analyses and
// Localizations.
//
// The default engine is the compiled one (internal/compiled), registered at
// init through RegisterDefaultEngine: it lowers the system into dense
// integer tables once per *cfsm.System (memoised on the system) and patches
// single table cells per fault hypothesis. The interpreted engine
// (NewSystemEngine) runs the string-keyed cfsm.System directly; it is the
// reference the differential tests in internal/compiled pin the compiled
// engine to, and the fallback when no compiled engine is registered or the
// system's configuration space does not pack.
//
// An Engine is bound to one specification at construction; passing it to a
// diagnosis of a different specification is a programming error.
type Engine interface {
	// Explains reports whether injecting f into the specification makes
	// every test case of the suite reproduce the matching observation
	// sequence. Faults that fail validation explain nothing.
	Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool
	// NewVariant returns an executable handle for the specification rewired
	// with f, or for the specification itself when f is nil. The error
	// mirrors fault.Fault.Apply's validation.
	NewVariant(f *fault.Fault) (Variant, error)
	// TransferToState finds a shortest avoid-respecting input sequence from
	// the initial configuration to any global configuration in which the
	// given machine is in the target state (testgen.TransferToState
	// semantics, including the search limit).
	TransferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool)
	// Distinguish finds a shortest avoid-respecting input sequence whose
	// observation sequences differ between the two variant positions
	// (testgen.Distinguish semantics). Both positions must come from this
	// engine's variants.
	Distinguish(a, b VariantPos, avoid testgen.RefSet) ([]cfsm.Input, bool)
}

// ProjectionDistinguisher is the Engine extension the observation-matcher
// (distributed observation) mode of Step 6 requires of its engine — both
// built-in engines implement it, and Step 6 with a matcher panics on an
// engine that does not. It searches
// for a shortest avoid-respecting suffix whose observation difference is
// *visible* — at least one of the two differing observations is non-silent,
// so some local observer records the difference (silence carries no port
// information; two runs differing only in where their ε slots fall project
// identically at every port). globalOnly reports that no visible difference
// was found although a silence-only (global-observer) difference exists.
type ProjectionDistinguisher interface {
	DistinguishProjected(a, b VariantPos, avoid testgen.RefSet) (seq []cfsm.Input, ok, globalOnly bool)
}

// AnalyzerEngine is an optional Engine extension: an engine that can run
// Steps 1–5B of the analysis on its own representation instead of the
// interpreted path (Analysis.analyzeInterpreted). The compiled engine
// implements it with integer/bitset structures over its transition indices.
//
// Analyze calls AnalyzeInto with the Analysis pre-initialized (Spec, Suite,
// Observed, engine, and empty non-nil maps). The implementation must fill
// Expected, Symptoms, FirstSymptom, UST/USO/Flag, Conflicts, ITC, UstSet,
// FTCtr, FTCco and the verified EndStates/Outputs/StatOut sets exactly as
// the interpreted path would — including entry presence, slice order and
// nil-ness, since the Analysis is serialized byte-for-byte into reports and
// server responses. Step 5C (emitDiagnoses), metrics and trace emission stay
// in Analyze and are shared by both paths.
//
// AnalyzeInto returns done=false (and no error) to decline — e.g. when the
// Analysis targets a different specification than the engine was built for —
// in which case Analyze falls back to the interpreted path. Errors are
// returned only for the analysis failures the interpreted path would also
// report (simulation failure, observation-count mismatch), with identical
// messages.
type AnalyzerEngine interface {
	Engine
	AnalyzeInto(a *Analysis) (done bool, err error)
}

// Variant is one behavioural hypothesis — the specification or a rewired
// copy — executable from its initial configuration.
type Variant interface {
	// Run executes a test case from the initial configuration and returns
	// the observation sequence (cfsm.System.Run semantics).
	Run(tc cfsm.TestCase) ([]cfsm.Observation, error)
	// RunInputs executes the inputs from the initial configuration and
	// additionally returns the reached position for use with
	// Engine.Distinguish.
	RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, Position, error)
}

// Position is an engine-specific encoding of a variant's reached global
// configuration. The interpreted engine uses cfsm.Config; the compiled
// engine packs the configuration into an integer.
type Position any

// VariantPos pairs a variant with a position it reached.
type VariantPos struct {
	V   Variant
	Pos Position
}

// engine resolves the analysis' execution engine, defaulting to
// defaultEngineFor so hand-built Analyses (tests, replay) keep working.
func (a *Analysis) engine() Engine {
	if a.eng == nil {
		a.eng = defaultEngineFor(a.Spec)
	}
	return a.eng
}

// defaultEngine is the registered constructor of the default engine; nil
// until internal/compiled's init registers it.
var defaultEngine func(spec *cfsm.System) Engine

// RegisterDefaultEngine installs the constructor of the engine used by every
// diagnosis without a WithEngine option. internal/compiled calls it once,
// from its package init; any further call panics, so the default is fixed
// for the life of the process. The constructor runs once per diagnosis and
// may return nil to select the interpreted engine for that specification.
func RegisterDefaultEngine(build func(spec *cfsm.System) Engine) {
	if defaultEngine != nil {
		panic("core: default engine registered twice")
	}
	defaultEngine = build
}

// defaultEngineFor builds the default engine for one diagnosis of spec: the
// registered engine when it accepts the specification, otherwise the
// interpreted one.
func defaultEngineFor(spec *cfsm.System) Engine {
	if defaultEngine != nil {
		if e := defaultEngine(spec); e != nil {
			return e
		}
	}
	return systemEngine{spec: spec}
}

// systemEngine is the interpreted reference: every operation runs against
// the string-keyed cfsm.System exactly as the pipeline historically did.
type systemEngine struct {
	spec *cfsm.System
}

// NewSystemEngine returns the interpreted engine for a specification: the
// reference semantics. Pass it with WithEngine to force a diagnosis off the
// default (compiled) engine, as the differential tests and the sweep's
// interpreted reference path do.
func NewSystemEngine(spec *cfsm.System) Engine { return systemEngine{spec: spec} }

func (e systemEngine) Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool {
	mutant, err := f.Apply(e.spec)
	if err != nil {
		return false
	}
	for i, tc := range suite {
		predicted, err := mutant.Run(tc)
		if err != nil {
			return false
		}
		if !cfsm.ObsEqual(predicted, observed[i]) {
			return false
		}
	}
	return true
}

func (e systemEngine) NewVariant(f *fault.Fault) (Variant, error) {
	if f == nil {
		return systemVariant{sys: e.spec}, nil
	}
	sys, err := f.Apply(e.spec)
	if err != nil {
		return nil, err
	}
	return systemVariant{sys: sys}, nil
}

func (e systemEngine) TransferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	res, ok := testgen.TransferToState(e.spec, machine, target, avoid)
	return res.Inputs, ok
}

func (e systemEngine) Distinguish(a, b VariantPos, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	return testgen.Distinguish(
		testgen.Variant{Sys: a.V.(systemVariant).sys, Cfg: a.Pos.(cfsm.Config)},
		testgen.Variant{Sys: b.V.(systemVariant).sys, Cfg: b.Pos.(cfsm.Config)},
		avoid,
	)
}

func (e systemEngine) DistinguishProjected(a, b VariantPos, avoid testgen.RefSet) ([]cfsm.Input, bool, bool) {
	return testgen.ProjectionDistinguish(
		testgen.Variant{Sys: a.V.(systemVariant).sys, Cfg: a.Pos.(cfsm.Config)},
		testgen.Variant{Sys: b.V.(systemVariant).sys, Cfg: b.Pos.(cfsm.Config)},
		avoid,
	)
}

// systemVariant executes one hypothesis against its interpreted system.
type systemVariant struct {
	sys *cfsm.System
}

func (v systemVariant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	return v.sys.Run(tc)
}

func (v systemVariant) RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, Position, error) {
	cfg := v.sys.InitialConfig()
	var obs []cfsm.Observation
	for _, in := range inputs {
		next, o, _, err := v.sys.Apply(cfg, in)
		if err != nil {
			return nil, nil, err
		}
		obs = append(obs, o)
		cfg = next
	}
	return obs, cfg, nil
}
