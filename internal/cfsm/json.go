package cfsm

import (
	"encoding/json"
	"fmt"
)

// The JSON codec gives the CLI and downstream tools a stable on-disk format
// for systems. Destinations are encoded by machine name ("" = the machine's
// own external port) so files remain readable and order-independent.

// TransitionJSON is the serialized form of a Transition.
type TransitionJSON struct {
	Name   string `json:"name"`
	From   string `json:"from"`
	Input  string `json:"input"`
	Output string `json:"output"`
	To     string `json:"to"`
	// Dest is the receiving machine's name for internal-output transitions
	// and empty for external-output transitions.
	Dest string `json:"dest,omitempty"`
}

// MachineJSON is the serialized form of a Machine.
type MachineJSON struct {
	Name        string           `json:"name"`
	Initial     string           `json:"initial"`
	States      []string         `json:"states"`
	Transitions []TransitionJSON `json:"transitions"`
}

// SystemJSON is the serialized form of a System.
type SystemJSON struct {
	Machines []MachineJSON `json:"machines"`
}

// MarshalJSON serializes the system.
func (s *System) MarshalJSON() ([]byte, error) {
	doc := SystemJSON{Machines: make([]MachineJSON, len(s.machines))}
	for i, m := range s.machines {
		mj := MachineJSON{Name: m.name, Initial: string(m.initial)}
		for _, st := range m.states {
			mj.States = append(mj.States, string(st))
		}
		for _, t := range m.Transitions() {
			tj := TransitionJSON{
				Name:   t.Name,
				From:   string(t.From),
				Input:  string(t.Input),
				Output: string(t.Output),
				To:     string(t.To),
			}
			if t.Internal() {
				tj.Dest = s.machines[t.Dest].name
			}
			mj.Transitions = append(mj.Transitions, tj)
		}
		doc.Machines[i] = mj
	}
	return json.MarshalIndent(doc, "", "  ")
}

// ParseSystem decodes a system from its JSON form and validates it.
func ParseSystem(data []byte) (*System, error) {
	var doc SystemJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("cfsm: decode system: %w", err)
	}
	return FromJSON(doc)
}

// FromJSON builds a validated system from its serialized form.
func FromJSON(doc SystemJSON) (*System, error) {
	index := make(map[string]int, len(doc.Machines))
	for i, mj := range doc.Machines {
		if _, dup := index[mj.Name]; dup {
			return nil, fmt.Errorf("cfsm: duplicate machine name %q", mj.Name)
		}
		index[mj.Name] = i
	}
	machines := make([]*Machine, 0, len(doc.Machines))
	for _, mj := range doc.Machines {
		states := make([]State, len(mj.States))
		for i, st := range mj.States {
			states[i] = State(st)
		}
		trans := make([]Transition, 0, len(mj.Transitions))
		for _, tj := range mj.Transitions {
			dest := DestEnv
			if tj.Dest != "" {
				d, ok := index[tj.Dest]
				if !ok {
					return nil, fmt.Errorf("cfsm %s: transition %s addresses unknown machine %q",
						mj.Name, tj.Name, tj.Dest)
				}
				dest = d
			}
			trans = append(trans, Transition{
				Name:   tj.Name,
				From:   State(tj.From),
				Input:  Symbol(tj.Input),
				Output: Symbol(tj.Output),
				To:     State(tj.To),
				Dest:   dest,
			})
		}
		m, err := NewMachine(mj.Name, State(mj.Initial), states, trans)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return NewSystem(machines...)
}

// TestCaseJSON is the wire form of one test case: its name and its inputs in
// the token notation the library prints ("R", "a^1", "c'^3"). The CLI's suite
// files, the HTTP service, the job queue and the cluster protocol all carry
// suites as arrays of it.
type TestCaseJSON struct {
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
}

// DuplicateTestCaseError reports a suite naming two test cases identically.
// The analysis keys its per-case results by test-case name, so a collision
// would silently attribute one case's observations to the other; DecodeSuite
// rejects it instead.
type DuplicateTestCaseError struct{ Name string }

func (e *DuplicateTestCaseError) Error() string {
	return fmt.Sprintf("suite names two test cases %q; test-case names must be unique", e.Name)
}

// EncodeSuite renders a suite in wire form.
func EncodeSuite(suite []TestCase) []TestCaseJSON {
	out := make([]TestCaseJSON, len(suite))
	for i, tc := range suite {
		out[i].Name = tc.Name
		for _, in := range tc.Inputs {
			out[i].Inputs = append(out[i].Inputs, in.String())
		}
	}
	return out
}

// DecodeSuite parses a wire-form suite. An unnamed case is named "tc<n>" after
// its 1-based position; two cases with the same name fail with a
// *DuplicateTestCaseError.
func DecodeSuite(cases []TestCaseJSON) ([]TestCase, error) {
	var out []TestCase
	seen := make(map[string]bool, len(cases))
	for i, tj := range cases {
		tc := TestCase{Name: tj.Name}
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tc%d", i+1)
		}
		if seen[tc.Name] {
			return nil, &DuplicateTestCaseError{Name: tc.Name}
		}
		seen[tc.Name] = true
		for _, tok := range tj.Inputs {
			in, err := ParseInputToken(tok)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tc.Name, err)
			}
			tc.Inputs = append(tc.Inputs, in)
		}
		out = append(out, tc)
	}
	return out, nil
}
