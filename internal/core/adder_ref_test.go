package core

import (
	"doacross/internal/bitset"
	"doacross/internal/dfg"
)

// refAdder is the arc adder the incremental one replaced, kept as the
// reference its decisions are held to: the duplicate test walks the From
// node's base and extra arc lists, and the cycle test is a depth-first
// search over base + extra arcs for every candidate.
type refAdder struct {
	adExtra []dfg.Arc
	adHead  []int32 // node -> first extra arc index + 1 (0 = none)
	adNext  []int32
	adMark  bitset.Bits
	adStack []int32
}

func (sc *refAdder) reset(g *dfg.Graph, _ []int32) {
	n := g.N()
	sc.adExtra = sc.adExtra[:0]
	sc.adNext = sc.adNext[:0]
	head := growInt32s(&sc.adHead, n)
	for i := range head {
		head[i] = 0
	}
}

func (sc *refAdder) arcs() []dfg.Arc { return sc.adExtra }

// adHas reports whether from→to exists in the base graph or the accepted
// extra arcs.
func (sc *refAdder) adHas(g *dfg.Graph, from, to int32) bool {
	for _, t := range g.Succ(int(from)) {
		if t == to {
			return true
		}
	}
	for e := sc.adHead[from]; e != 0; e = sc.adNext[e-1] {
		if sc.adExtra[e-1].To == to {
			return true
		}
	}
	return false
}

// add accepts the arc unless it already exists or would close a cycle.
func (sc *refAdder) add(g *dfg.Graph, arc dfg.Arc) bool {
	if arc.From == arc.To || sc.adHas(g, arc.From, arc.To) {
		return false
	}
	if sc.adReaches(g, arc.To, arc.From) {
		return false
	}
	idx := len(sc.adExtra)
	sc.adExtra = append(sc.adExtra, arc)
	sc.adNext = append(sc.adNext, sc.adHead[arc.From])
	sc.adHead[arc.From] = int32(idx) + 1
	return true
}

// removeLast undoes the most recent successful add.
func (sc *refAdder) removeLast() {
	k := len(sc.adExtra) - 1
	if k < 0 {
		return
	}
	arc := sc.adExtra[k]
	sc.adHead[arc.From] = sc.adNext[k]
	sc.adExtra = sc.adExtra[:k]
	sc.adNext = sc.adNext[:k]
}

// adReaches reports whether dst is reachable from src over base + extras.
func (sc *refAdder) adReaches(g *dfg.Graph, src, dst int32) bool {
	if src == dst {
		return true
	}
	mark := bitset.Make(sc.adMark, g.N())
	sc.adMark = mark
	stack := append(sc.adStack[:0], src)
	mark.Set(int(src))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(int(v)) {
			if w == dst {
				sc.adStack = stack
				return true
			}
			if !mark.Has(int(w)) {
				mark.Set(int(w))
				stack = append(stack, w)
			}
		}
		for e := sc.adHead[v]; e != 0; e = sc.adNext[e-1] {
			w := sc.adExtra[e-1].To
			if w == dst {
				sc.adStack = stack
				return true
			}
			if !mark.Has(int(w)) {
				mark.Set(int(w))
				stack = append(stack, w)
			}
		}
	}
	sc.adStack = stack
	return false
}
