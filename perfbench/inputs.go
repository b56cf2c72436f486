package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// iutCase is one implementation under test: the specification with one
// injected single-transition fault.
type iutCase struct {
	fault fault.Fault
	sys   *cfsm.System
	doc   []byte // inline JSON document (fig1-diagnose)
	bin   []byte // CFSMBIN upload (rand-diagnose)
	// globalSymptom and portSymptom record whether the suite's observations
	// (global, resp. per-port projections) differ from the specification's.
	globalSymptom, portSymptom bool
}

// variant is one distinct request: an IUT, observed globally or through the
// port map.
type variant struct {
	iut   int
	ports bool
	body  []byte
}

// diagInputs are a diagnose workload's seeded inputs.
type diagInputs struct {
	spec    *cfsm.System
	specDoc []byte // inline JSON spec (fig1-diagnose)
	specBin []byte // uploaded CFSMBIN spec (rand-diagnose)
	suite   []cfsm.TestCase
	portMap map[string]string
	pm      ports.Map
	iuts    []iutCase
	// variants are the distinct request bodies; requests draw from them.
	variants []variant
	// draw maps request number i of a phase to a variant.
	draw func(phase int64, i int) int
	rate float64
	// tail is the latency percentile reported as loadgen.tail_ms. p90 keeps
	// at least ten samples beyond it in every segment; Figure 1 traffic
	// would support p99, but its p99 moved by a quarter between runs of one
	// build on a 2-CPU host.
	tail float64
	// uploads are the models uploaded in set-up (CFSMBIN), spec first.
	uploads [][]byte
}

// wireCase is the request's test-case shape.
type wireCase struct {
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
}

func wireSuite(suite []cfsm.TestCase) []wireCase {
	out := make([]wireCase, len(suite))
	for i, tc := range suite {
		out[i] = wireCase{Name: tc.Name, Inputs: make([]string, len(tc.Inputs))}
		for j, in := range tc.Inputs {
			out[i].Inputs[j] = in.String()
		}
	}
	return out
}

// diagnoseBody is the /v1/diagnose request document.
type diagnoseBody struct {
	Spec    json.RawMessage   `json:"spec,omitempty"`
	IUT     json.RawMessage   `json:"iut,omitempty"`
	SpecRef string            `json:"specRef,omitempty"`
	IUTRef  string            `json:"iutRef,omitempty"`
	Suite   []wireCase        `json:"suite"`
	Ports   map[string]string `json:"ports,omitempty"`
}

// mix is a splitmix64 step: a stateless seeded draw for request number i,
// so any phase length maps to the same request sequence.
func mix(seed, phase int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(phase)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fig1Inputs builds fig1-diagnose: the Figure 1 spec and paper suite, an IUT
// drawn from the paper's fault and the 145 single-transition mutants, both
// sent inline; one request in three carries the one-observer-per-machine
// port map of experiment E18.
func fig1Inputs(o options) (*diagInputs, error) {
	spec, err := paper.Figure1()
	if err != nil {
		return nil, err
	}
	in := &diagInputs{spec: spec, suite: paper.TestSuite(), rate: o.fig1Rate, tail: 0.90}
	if in.specDoc, err = spec.MarshalJSON(); err != nil {
		return nil, err
	}
	in.portMap = map[string]string{}
	for i, m := range spec.Machines() {
		in.portMap[m.Name()] = fmt.Sprintf("site-%02d", i)
	}
	if in.pm, err = ports.FromAssignments(in.portMap, spec); err != nil {
		return nil, err
	}
	faults := fault.Enumerate(spec)
	paperFault := -1
	for i, f := range faults {
		if f.Ref == paper.FaultRef && f.Kind == fault.KindTransfer && f.To == "s0" {
			paperFault = i
		}
	}
	if paperFault < 0 {
		return nil, fmt.Errorf("the paper's fault is not among the %d enumerated mutants", len(faults))
	}
	pool := append([]fault.Fault{faults[paperFault]}, faults...)
	if err := in.addIUTs(pool, true); err != nil {
		return nil, err
	}
	wire := wireSuite(in.suite)
	for i, c := range in.iuts {
		for _, withPorts := range []bool{false, true} {
			b := diagnoseBody{Spec: in.specDoc, IUT: c.doc, Suite: wire}
			if withPorts {
				b.Ports = in.portMap
			}
			body, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			in.variants = append(in.variants, variant{iut: i, ports: withPorts, body: body})
		}
	}
	seed := o.seed
	in.draw = func(phase int64, i int) int {
		iut := int(mix(seed, phase, i) % uint64(len(in.iuts)))
		if i%3 == 2 {
			return 2*iut + 1
		}
		return 2 * iut
	}
	return in, nil
}

// randSystem is rand-diagnose's specification: N=4, States=4, randgen seed
// 1 (870 single-transition mutants).
func randSystem() (*cfsm.System, error) {
	cfg := randgen.DefaultConfig()
	cfg.N, cfg.States = 4, 4
	return randgen.Generate(cfg)
}

// randSample is how many mutant IUTs rand-diagnose uploads; with the spec
// the registry holds 129 entries, under its 256-entry default cap.
const randSample = 128

// randInputs builds rand-diagnose: a random 4-machine system, uploaded as
// CFSMBIN with a fixed sample of 128 mutant IUTs; requests name both by
// registry reference, send the transition tour explicitly, and use global
// observation only.
func randInputs(o options) (*diagInputs, error) {
	spec, err := randSystem()
	if err != nil {
		return nil, err
	}
	suite, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) > 0 {
		return nil, fmt.Errorf("rand-diagnose: tour leaves %d transitions uncovered", len(uncovered))
	}
	in := &diagInputs{spec: spec, suite: suite, rate: o.randRate, tail: 0.90, pm: ports.Default(spec)}
	in.specBin = compiled.EncodeSystem(spec)
	// The sample is drawn once, with seed 1, so that runs at different seeds
	// diagnose the same IUTs: per-IUT costs differ widely, and a per-seed
	// sample would make the latency mostly a function of the sample. The
	// seed varies the request order and the arrival times.
	faults := fault.Enumerate(spec)
	perm := rand.New(rand.NewSource(1)).Perm(len(faults))
	pool := make([]fault.Fault, 0, randSample)
	for _, k := range perm[:min(randSample, len(perm))] {
		pool = append(pool, faults[k])
	}
	if err := in.addIUTs(pool, false); err != nil {
		return nil, err
	}
	in.uploads = append(in.uploads, in.specBin)
	wire := wireSuite(suite)
	specRef := compiled.ModelHash(spec)
	for i, c := range in.iuts {
		in.uploads = append(in.uploads, c.bin)
		body, err := json.Marshal(diagnoseBody{SpecRef: specRef, IUTRef: compiled.ModelHash(c.sys), Suite: wire})
		if err != nil {
			return nil, err
		}
		in.variants = append(in.variants, variant{iut: i, body: body})
	}
	seed := o.seed
	in.draw = func(phase int64, i int) int { return int(mix(seed, phase, i) % uint64(len(in.iuts))) }
	return in, nil
}

// addIUTs applies each fault and records the ground truth the checker needs:
// whether the suite shows a symptom globally and per port.
func (in *diagInputs) addIUTs(pool []fault.Fault, inline bool) error {
	expected, err := in.spec.RunSuite(in.suite)
	if err != nil {
		return err
	}
	for _, f := range pool {
		sys, err := f.Apply(in.spec)
		if err != nil {
			return err
		}
		c := iutCase{fault: f, sys: sys}
		if inline {
			if c.doc, err = sys.MarshalJSON(); err != nil {
				return err
			}
		} else {
			c.bin = compiled.EncodeSystem(sys)
		}
		got, err := sys.RunSuite(in.suite)
		if err != nil {
			return err
		}
		for k := range got {
			if !cfsm.ObsEqual(got[k], expected[k]) {
				c.globalSymptom = true
			}
			if !ports.Project(in.pm, got[k]).Equal(ports.Project(in.pm, expected[k])) {
				c.portSymptom = true
			}
		}
		in.iuts = append(in.iuts, c)
	}
	return nil
}
