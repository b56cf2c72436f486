package compiled

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/testgen"
)

// searchLimit bounds the number of configurations (or configuration pairs)
// a search may visit, and must equal the interpreted searches' limit
// (testgen.searchLimit) for verdict parity.
const searchLimit = 200_000

// stampThreshold is the largest key space for which the searches use an
// epoch-stamped dense visited array instead of a hash map. 1<<20 entries is
// 4 MiB, allocated once per pooled scratch and reused across searches.
const stampThreshold = uint64(1) << 20

// search is one search's reusable scratch: unpacked configuration buffers,
// the node arena (the BFS frontier is the arena itself, walked by an index),
// and the visited structure. Scratch lives in the Program's pool, so the
// per-diagnosis engines over one memoised Program share a handful of
// visited arrays instead of allocating one each.
type search struct {
	nodeA   []int32 // unpacked configuration of the node being expanded
	nodeB   []int32
	curA    []int32 // per-input working copies
	curB    []int32
	nodes   []snode
	stamp   []uint32 // dense visited array (epoch-stamped)
	epoch   uint32
	useMap  bool // key space above stampThreshold: visited lives in seenMap
	seenMap map[uint64]struct{}
}

// snode is one search node: the packed configuration (or pair halves) plus
// the parent arena index and the input-universe index that reached it.
type snode struct {
	a, b   uint64
	parent int32
	in     int32
}

// getSearch takes a scratch from the program's pool and resets it for one
// search over single (pair=false) or paired configurations. Callers return
// it with putSearch once the result no longer reads the arena.
func (p *Program) getSearch(pair bool) *search {
	s, _ := p.searchPool.Get().(*search)
	if s == nil {
		n := len(p.machines)
		s = &search{
			nodeA: make([]int32, n),
			nodeB: make([]int32, n),
			curA:  make([]int32, n),
			curB:  make([]int32, n),
		}
	}
	s.nodes = s.nodes[:0]
	space := p.configs
	if pair {
		space = space * space // configs ≤ 2^31, no overflow
	}
	s.useMap = space > stampThreshold
	if !s.useMap {
		if uint64(len(s.stamp)) < space {
			s.stamp = make([]uint32, space)
			s.epoch = 0
		}
		s.epoch++
		if s.epoch == 0 {
			clear(s.stamp)
			s.epoch = 1
		}
	} else if s.seenMap == nil {
		s.seenMap = make(map[uint64]struct{}, 1024)
	} else {
		clear(s.seenMap)
	}
	return s
}

func (p *Program) putSearch(s *search) { p.searchPool.Put(s) }

// visit marks key as seen and reports whether it was already seen.
func (s *search) visit(key uint64) bool {
	if !s.useMap {
		if s.stamp[key] == s.epoch {
			return true
		}
		s.stamp[key] = s.epoch
		return false
	}
	if _, ok := s.seenMap[key]; ok {
		return true
	}
	s.seenMap[key] = struct{}{}
	return false
}

// avoidMask lowers an avoid set to a per-transition mask; refs outside the
// program match nothing, as under the interpreted hitsAvoid.
func (e *Engine) avoidMask(avoid testgen.RefSet) []bool {
	if len(avoid) == 0 {
		return nil
	}
	mask := make([]bool, len(e.p.trans))
	for r := range avoid {
		if idx, ok := e.p.TransIndex(r); ok {
			mask[idx] = true
		}
	}
	return mask
}

func hitsMask(mask []bool, e1, e2 int32) bool {
	if mask == nil {
		return false
	}
	if e1 >= 0 && mask[e1] {
		return true
	}
	return e2 >= 0 && mask[e2]
}

// path reconstructs the input sequence reaching arena node i, in order.
func (e *Engine) path(s *search, i int32, last int32) []cfsm.Input {
	depth := 1
	for n := i; n >= 0; n = s.nodes[n].parent {
		if s.nodes[n].in >= 0 {
			depth++
		}
	}
	out := make([]cfsm.Input, depth)
	out[depth-1] = e.p.decodeInput(last)
	k := depth - 2
	for n := i; n >= 0 && k >= 0; n = s.nodes[n].parent {
		out[k] = e.p.decodeInput(s.nodes[n].in)
		k--
	}
	return out
}

// transferSearch is the compiled testgen.TransferToConfig for the goal "the
// given machine is in state goal": breadth-first over packed configurations
// of the specification, skipping no-progress inputs and avoided transitions,
// visit-checked before the goal — exactly the interpreted search's order, so
// the returned sequence is identical. A goal of -1 (undeclared target state)
// exhausts the search, as the interpreted goal predicate would.
func (e *Engine) transferSearch(machine int, goal int32, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	p := e.p
	s := p.getSearch(false)
	defer p.putSearch(s)
	mask := e.avoidMask(avoid)
	var steps int64
	defer func() { cfsm.RecordSimulated(steps, 0) }()

	start := p.initialP
	p.unpack(start, s.nodeA)
	if goal >= 0 && s.nodeA[machine] == goal {
		return nil, true
	}
	s.visit(start)
	seenCount := 1
	s.nodes = append(s.nodes, snode{a: start, parent: -1, in: -1})
	for head := 0; head < len(s.nodes) && seenCount < searchLimit; head++ {
		n := s.nodes[head]
		p.unpack(n.a, s.nodeA)
		for ii := range p.inputs {
			copy(s.curA, s.nodeA)
			steps++
			o, e1, e2, ok := p.stepCfg(s.curA, None(), p.inputs[ii])
			if !ok {
				continue
			}
			if o.sym == p.epsID && e1 < 0 {
				continue // undefined input: no progress
			}
			if hitsMask(mask, e1, e2) {
				continue
			}
			key := p.pack(s.curA)
			if s.visit(key) {
				continue
			}
			seenCount++
			if goal >= 0 && s.curA[machine] == goal {
				return e.path(s, int32(head), int32(ii)), true
			}
			s.nodes = append(s.nodes, snode{a: key, parent: int32(head), in: int32(ii)})
		}
	}
	return nil, false
}

// distinguishSearch is the compiled testgen.DistinguishOver: breadth-first
// over pairs of packed configurations, one side per overlay, returning the
// first input sequence whose observations differ (checked before the
// visited test, exactly as interpreted).
func (e *Engine) distinguishSearch(ovA Overlay, pa uint64, ovB Overlay, pb uint64, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	seq, ok, _ := e.pairSearch(ovA, pa, ovB, pb, avoid, false)
	return seq, ok
}

// pairSearch is the breadth-first search over pairs of packed
// configurations behind distinguishSearch and, with projected set, the
// compiled testgen.ProjectionDistinguishOver: there a difference counts only
// when at least one side is non-silent, and a silence-only difference sets
// globalOnly and is explored through.
func (e *Engine) pairSearch(ovA Overlay, pa uint64, ovB Overlay, pb uint64, avoid testgen.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool) {
	p := e.p
	s := p.getSearch(true)
	defer p.putSearch(s)
	mask := e.avoidMask(avoid)
	var steps int64
	defer func() { cfsm.RecordSimulated(steps, 0) }()

	pairKey := func(a, b uint64) uint64 {
		if !s.useMap {
			return a*p.configs + b
		}
		return a<<32 | b
	}
	s.visit(pairKey(pa, pb))
	seenCount := 1
	s.nodes = append(s.nodes, snode{a: pa, b: pb, parent: -1, in: -1})
	for head := 0; head < len(s.nodes) && seenCount < searchLimit; head++ {
		n := s.nodes[head]
		p.unpack(n.a, s.nodeA)
		p.unpack(n.b, s.nodeB)
		for ii := range p.inputs {
			copy(s.curA, s.nodeA)
			copy(s.curB, s.nodeB)
			steps += 2
			oA, a1, a2, okA := p.stepCfg(s.curA, ovA, p.inputs[ii])
			oB, b1, b2, okB := p.stepCfg(s.curB, ovB, p.inputs[ii])
			if !okA || !okB {
				continue
			}
			if hitsMask(mask, a1, a2) || hitsMask(mask, b1, b2) {
				continue
			}
			if oA != oB {
				if !projected || !p.silent(oA) || !p.silent(oB) {
					return e.path(s, int32(head), int32(ii)), true, false
				}
				globalOnly = true
			}
			na, nb := p.pack(s.curA), p.pack(s.curB)
			if s.visit(pairKey(na, nb)) {
				continue
			}
			seenCount++
			s.nodes = append(s.nodes, snode{a: na, b: nb, parent: int32(head), in: int32(ii)})
		}
	}
	return nil, false, globalOnly
}

// silent reports an observation no local observer records: ε or the Null
// reset output (testgen's silentObs on compiled symbols).
func (p *Program) silent(o cobs) bool { return o.sym == p.epsID || o.sym == p.nullID }
