package cfsm

// Patcher realizes single-transition rewires of a validated system without
// cloning a system per rewire. It keeps one scratch clone of every machine
// and, per rewire, patches a single transition of the relevant scratch in
// place, restoring the machine's previously patched transition first. It is
// the interpreted counterpart of the compiled representation's overlays and
// backs the streaming mutant enumeration (fault.ForEachMutant).
//
// The returned systems alias the patcher's scratch machines: a system
// obtained from a Patcher is valid only until the next Rewire or
// RewireAddress that touches the same machine, and must not be retained
// beyond that or patched concurrently. Unlike System.Rewire, the patched
// system is NOT re-validated: callers must only request rewires they know
// keep the model valid (for example, faults validated against the source
// system).
type Patcher struct {
	src     *System
	scratch []*Machine
	sys     []*System // sys[i] is src with machine i swapped for scratch[i]
	dirty   []string  // name of each machine's patched transition ("" = clean)
}

// NewPatcher returns a patcher over the given system. The source system is
// never modified.
func NewPatcher(s *System) *Patcher {
	p := &Patcher{
		src:     s,
		scratch: make([]*Machine, len(s.machines)),
		sys:     make([]*System, len(s.machines)),
		dirty:   make([]string, len(s.machines)),
	}
	for i, m := range s.machines {
		p.scratch[i] = m.clone()
		ms := make([]*Machine, len(s.machines))
		copy(ms, s.machines)
		ms[i] = p.scratch[i]
		p.sys[i] = &System{machines: ms, patched: true}
	}
	return p
}

// restore returns machine i's scratch clone to the specification.
func (p *Patcher) restore(i int) {
	if p.dirty[i] == "" {
		return
	}
	k := p.src.machines[i].byName[p.dirty[i]]
	p.scratch[i].sorted[k] = p.src.machines[i].sorted[k]
	p.dirty[i] = ""
}

// patch installs t at the referenced slot and returns the aliased mutant.
func (p *Patcher) patch(r Ref, t Transition) *System {
	i := r.Machine
	p.restore(i)
	p.scratch[i].sorted[p.src.machines[i].byName[r.Name]] = t
	p.dirty[i] = r.Name
	return p.sys[i]
}

// Rewire is the reusable-buffer counterpart of System.Rewire: the referenced
// transition's output is replaced by newOutput (if non-empty) and its next
// state by newTo (if non-empty). It reports ok=false when the transition does
// not exist or newTo is not a declared state.
func (p *Patcher) Rewire(r Ref, newOutput Symbol, newTo State) (*System, bool) {
	t, ok := p.src.Transition(r)
	if !ok {
		return nil, false
	}
	if newTo != "" && !p.src.machines[r.Machine].HasState(newTo) {
		return nil, false
	}
	if newOutput != "" {
		t.Output = newOutput
	}
	if newTo != "" {
		t.To = newTo
	}
	return p.patch(r, t), true
}

// RewireAddress is the reusable-buffer counterpart of System.RewireAddress:
// the referenced transition delivers its output to newDest. It reports
// ok=false when the transition does not exist, the destination is unchanged
// or out of range; the model-rule re-validation of System.RewireAddress is
// NOT repeated (see the type comment).
func (p *Patcher) RewireAddress(r Ref, newDest int) (*System, bool) {
	t, ok := p.src.Transition(r)
	if !ok || newDest == t.Dest {
		return nil, false
	}
	if newDest != DestEnv && (newDest < 0 || newDest >= len(p.src.machines)) {
		return nil, false
	}
	t.Dest = newDest
	return p.patch(r, t), true
}
