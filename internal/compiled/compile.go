// Package compiled lowers a validated cfsm.System into a dense, integer-
// indexed representation — interned state and symbol IDs, flat transition
// tables, packed global configurations — and executes the diagnosis hot
// paths against it: test-suite replay (Explains), behavioural variants, and
// the Step-6 transfer/distinguishing searches.
//
// The string-keyed cfsm.System stays the construction, validation and
// reporting layer; a Program is a read-only view of one. Fault hypotheses
// are realized as one-cell table overlays (Overlay) instead of deep system
// copies, which removes the clone-and-revalidate cost that dominates the
// interpreted sweep. The Engine type plugs the compiled substrate into
// internal/core via core.WithEngine; its contract is byte-for-byte verdict
// equality with the interpreted engine, pinned by the differential tests in
// this package.
//
// The package also defines the versioned binary on-disk codec for systems
// (codec.go) used by `cfsmdiag convert`/`cfsmdiag info` and the server's
// content-addressed model registry.
package compiled

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/testgen"
)

// Trans is one transition in compiled form. All fields are dense IDs:
// From/To index the owning machine's sorted state list, Input/Output index
// the program's global symbol table, Dest is the receiving machine index or
// -1 for the environment (external output). The name stays with the source
// machine (see Program.Ref).
type Trans struct {
	Machine int32
	From    int32
	Input   int32
	Output  int32
	To      int32
	Dest    int32
	// alts[altLo:altHi] of the program is the transition's output-fault
	// hypothesis space (cfsm.System.AlternativeOutputs) as sorted symbol IDs.
	altLo, altHi int32
}

// Internal reports whether the transition delivers its output to a peer.
func (t Trans) Internal() bool { return t.Dest >= 0 }

// machineProg is the compiled form of one machine.
type machineProg struct {
	name      string
	states    []cfsm.State // sorted, ID = index
	initial   int32
	numStates int32
	// base is the compiled index of the machine's first transition: a
	// transition's index is base plus its position in Machine.Transitions.
	base int32
	// lookup maps state*numSyms+symbol to transition index+1 (0 = no
	// transition defined), the dense replacement for Machine.Lookup.
	lookup []int32
}

// stim is one element of the compiled external-input universe, in
// testgen.AllInputs order.
type stim struct {
	port int32
	sym  int32
}

// maxPackedConfigs bounds the packed global state space: Engine searches key
// pairs of configurations into a single uint64, which needs each packed
// configuration to fit in 31 bits.
const maxPackedConfigs = uint64(1) << 31

// Program is the compiled, immutable form of a system. A Program may be
// shared by any number of goroutines; all mutable execution state lives in
// Runner and Engine instances.
type Program struct {
	src      *cfsm.System
	syms     []cfsm.Symbol // sorted, ID = index
	symIdx   map[cfsm.Symbol]int32
	nullID   int32
	epsID    int32
	machines []machineProg
	trans    []Trans
	alts     []int32 // every transition's alternative outputs, see Trans
	inputs   []stim  // testgen.AllInputs order

	// Mixed-radix packing of global configurations: packed(cfg) equals the
	// sum of state-ID times stride per machine.
	strides  []uint64
	configs  uint64 // total packed configurations; 0 when not packable
	initialP uint64

	// searchPool recycles Step-6 search scratch (*search) across the
	// engines sharing this program; see getSearch.
	searchPool sync.Pool
}

// Compile lowers a validated system. The resulting Program supports running
// and overlays unconditionally; the packed-configuration searches (Engine)
// additionally require the global state space to fit maxPackedConfigs —
// see Packable.
func Compile(sys *cfsm.System) (*Program, error) {
	if sys == nil {
		return nil, fmt.Errorf("compiled: nil system")
	}
	p := &Program{src: sys}

	// Intern every symbol appearing in the system plus the reserved Null and
	// Epsilon, in sorted order so symbol-ID order equals string order.
	symSet := map[cfsm.Symbol]bool{cfsm.Null: true, cfsm.Epsilon: true}
	for _, m := range sys.Machines() {
		for _, t := range m.Transitions() {
			symSet[t.Input] = true
			symSet[t.Output] = true
		}
	}
	p.syms = make([]cfsm.Symbol, 0, len(symSet))
	for s := range symSet {
		p.syms = append(p.syms, s)
	}
	sort.Slice(p.syms, func(i, j int) bool { return p.syms[i] < p.syms[j] })
	p.symIdx = make(map[cfsm.Symbol]int32, len(p.syms))
	for i, s := range p.syms {
		p.symIdx[s] = int32(i)
	}
	p.nullID = p.symID(cfsm.Null)
	p.epsID = p.symID(cfsm.Epsilon)
	numSyms := int32(len(p.syms))

	// Machines: states are already sorted by construction (Machine.States),
	// so state-ID order equals string order per machine.
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		states := m.States()
		mp := machineProg{
			name:      m.Name(),
			states:    states,
			numStates: int32(len(states)),
		}
		mp.initial, _ = mp.stateID(m.Initial())
		mp.lookup = make([]int32, int(mp.numStates)*int(numSyms))
		p.machines = append(p.machines, mp)
	}

	// Transitions in cfsm.System.Refs order: machine index, then (From,
	// Input) — the canonical enumeration order everywhere else.
	numTrans := 0
	for i := 0; i < sys.N(); i++ {
		numTrans += sys.Machine(i).NumTransitions()
	}
	p.trans = make([]Trans, 0, numTrans)
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		mp := &p.machines[i]
		mp.base = int32(len(p.trans))
		for _, t := range m.Transitions() {
			ref := cfsm.Ref{Machine: i, Name: t.Name}
			from, _ := mp.stateID(t.From)
			to, _ := mp.stateID(t.To)
			ct := Trans{
				Machine: int32(i),
				From:    from,
				Input:   p.symID(t.Input),
				Output:  p.symID(t.Output),
				To:      to,
				Dest:    int32(t.Dest),
				altLo:   int32(len(p.alts)),
			}
			for _, o := range sys.AlternativeOutputs(ref) {
				p.alts = append(p.alts, p.symID(o))
			}
			ct.altHi = int32(len(p.alts))
			idx := int32(len(p.trans))
			p.trans = append(p.trans, ct)
			mp.lookup[int(ct.From)*int(numSyms)+int(ct.Input)] = idx + 1
		}
	}

	p.alts = append([]int32(nil), p.alts...) // drop the growth slack

	// External-input universe, exactly testgen.AllInputs order.
	all := testgen.AllInputs(sys)
	p.inputs = make([]stim, len(all))
	for k, in := range all {
		p.inputs[k] = stim{port: int32(in.Port), sym: p.symID(in.Sym)}
	}

	// Configuration packing.
	p.strides = make([]uint64, sys.N())
	total := uint64(1)
	packable := true
	for i := range p.machines {
		p.strides[i] = total
		n := uint64(p.machines[i].numStates)
		if total > math.MaxUint64/n {
			packable = false
			break
		}
		total *= n
	}
	if packable && total <= maxPackedConfigs {
		p.configs = total
		p.initialP = 0
		for i := range p.machines {
			p.initialP += uint64(p.machines[i].initial) * p.strides[i]
		}
	}
	return p, nil
}

// System returns the source system the program was compiled from.
func (p *Program) System() *cfsm.System { return p.src }

// N returns the number of machines.
func (p *Program) N() int { return len(p.machines) }

// NumTransitions returns the number of compiled transitions.
func (p *Program) NumTransitions() int { return len(p.trans) }

// NumSymbols returns the size of the interned symbol table (reserved symbols
// included).
func (p *Program) NumSymbols() int { return len(p.syms) }

// Configs returns the size of the packed global configuration space, or 0
// when the space exceeds the packable bound.
func (p *Program) Configs() uint64 { return p.configs }

// Packable reports whether the global configuration space packs into the
// integer keys the Engine searches require.
func (p *Program) Packable() bool { return p.configs > 0 }

// Ref returns the compiled transition's global reference, naming it from the
// source machine (the inverse of TransIndex).
func (p *Program) Ref(idx int32) cfsm.Ref {
	m := p.trans[idx].Machine
	return cfsm.Ref{Machine: int(m), Name: p.src.Machine(int(m)).NameAt(int(idx - p.machines[m].base))}
}

// Trans returns the compiled transition table entry at idx.
func (p *Program) Trans(idx int32) Trans { return p.trans[idx] }

// TransIndex resolves a transition reference to its compiled index: the
// machine's base index plus the transition's position in the source
// machine's sorted order, read from the machine's own name index
// (cfsm.Machine.Index) rather than a program-wide map.
func (p *Program) TransIndex(r cfsm.Ref) (int32, bool) {
	if r.Machine < 0 || r.Machine >= len(p.machines) {
		return -1, false
	}
	k, ok := p.src.Machine(r.Machine).Index(r.Name)
	if !ok {
		return -1, false
	}
	return p.machines[r.Machine].base + int32(k), true
}

// altOuts returns the alternative outputs of transition idx as sorted
// symbol IDs.
func (p *Program) altOuts(idx int32) []int32 {
	t := &p.trans[idx]
	return p.alts[t.altLo:t.altHi]
}

// symID resolves a symbol to its ID; -1 when the symbol is outside the
// program's alphabet.
func (p *Program) symID(s cfsm.Symbol) int32 {
	if id, ok := p.symIdx[s]; ok {
		return id
	}
	return -1
}

// stateID resolves a state name to its ID by binary search over the
// machine's sorted states.
func (mp *machineProg) stateID(s cfsm.State) (int32, bool) {
	i := sort.Search(len(mp.states), func(i int) bool { return mp.states[i] >= s })
	if i < len(mp.states) && mp.states[i] == s {
		return int32(i), true
	}
	return -1, false
}

// Symbol decodes a symbol ID; out-of-range IDs decode to Epsilon, which only
// arises for the unknown-observation sentinel.
func (p *Program) Symbol(id int32) cfsm.Symbol {
	if id < 0 || int(id) >= len(p.syms) {
		return cfsm.Epsilon
	}
	return p.syms[id]
}

// pack encodes an unpacked configuration (state IDs per machine).
func (p *Program) pack(cfg []int32) uint64 {
	var k uint64
	for i, s := range cfg {
		k += uint64(s) * p.strides[i]
	}
	return k
}

// unpack decodes a packed configuration into dst (len = number of machines).
func (p *Program) unpack(k uint64, dst []int32) {
	for i := range p.machines {
		dst[i] = int32(k / p.strides[i] % uint64(p.machines[i].numStates))
	}
}

// decodeInputs converts a compiled input-universe index to the external
// stimulus it denotes.
func (p *Program) decodeInput(i int32) cfsm.Input {
	s := p.inputs[i]
	return cfsm.Input{Port: int(s.port), Sym: p.syms[s.sym]}
}
