package cfsm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBuildsOncePerSystem: concurrent first calls build the memo once
// and all see that value; a rewired copy has its own empty slot; a
// Patcher's aliased systems, which change in place, never memoise.
func TestMemoBuildsOncePerSystem(t *testing.T) {
	sys := twoMachine(t)
	var builds atomic.Int64
	build := func(s *System) any {
		builds.Add(1)
		return &struct{ n int }{s.NumTransitions()}
	}
	if sys.Memoised() != nil {
		t.Fatal("fresh system has a memoised value")
	}
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sys.Memo(build)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	for i := range got {
		if got[i] != sys.Memoised() {
			t.Fatalf("call %d saw a different value", i)
		}
	}

	r := sys.Refs()[0]
	rewired, err := sys.Rewire(r, "", "s0")
	if err != nil {
		t.Fatal(err)
	}
	if rewired.Memoised() != nil {
		t.Fatal("a rewired copy inherited the memo")
	}

	patched, ok := NewPatcher(sys).Rewire(r, "", "s0")
	if !ok {
		t.Fatal("Patcher.Rewire failed")
	}
	before := builds.Load()
	patched.Memo(build)
	patched.Memo(build)
	if n := builds.Load() - before; n != 2 || patched.Memoised() != nil {
		t.Fatalf("patched system: %d builds and memoised %v, want 2 and nil", n, patched.Memoised())
	}
}

// TestRewireLeavesSourceMachine: clones share the index maps and states but
// not the transition slice, so a rewire never shows through the source.
func TestRewireLeavesSourceMachine(t *testing.T) {
	sys := twoMachine(t)
	r := Ref{Machine: 0, Name: "a1"}
	orig, _ := sys.Transition(r)
	rewired, err := sys.Rewire(r, "", "s0")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.Transition(r); got != orig {
		t.Fatalf("source transition changed to %v", got)
	}
	if got, _ := rewired.Machine(0).Lookup("s0", "x"); got.To != "s0" || got.Name != "a1" {
		t.Fatalf("rewired lookup = %v", got)
	}
	if got, _ := sys.Machine(0).Lookup("s0", "x"); got.To != "s1" {
		t.Fatalf("source lookup = %v", got)
	}
}

// TestNewMachineReportsFirstBadState: the state-list errors name the first
// offending entry in input order, as a scan in that order would.
func TestNewMachineReportsFirstBadState(t *testing.T) {
	for _, tc := range []struct {
		states []State
		want   string
	}{
		{[]State{"b", "a", "a", "b"}, `cfsm M: duplicate state "a"`},
		{[]State{"b", "a", "b", "a"}, `cfsm M: duplicate state "b"`},
		{[]State{"a", "a", ""}, `cfsm M: duplicate state "a"`},
		{[]State{"a", "", "a"}, "cfsm M: empty state name"},
	} {
		_, err := NewMachine("M", "a", tc.states, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("states %q: got %v, want %s", tc.states, err, tc.want)
		}
	}
}
