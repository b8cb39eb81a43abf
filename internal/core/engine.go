package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"doacross/internal/bitset"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
)

// order is a static issue preference: the nodes sorted by (priority, index)
// ascending, the order in which the cycle engine considers ready nodes.
type order struct {
	nodes []int32 // position -> node
	pos   []int32 // node -> position
}

// sort fills o with the nodes 0..len(priority)-1 sorted by (priority[v], v).
// o's slices must have len(priority) elements.
func (o *order) sort(priority []int) {
	for v := range o.nodes {
		o.nodes[v] = int32(v)
	}
	slices.SortFunc(o.nodes, func(a, b int32) int {
		if c := cmp.Compare(priority[a], priority[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, v := range o.nodes {
		o.pos[v] = int32(i)
	}
}

// engine is the shared resource-constrained cycle scheduler over scratch
// state. Ready nodes issue in ord's order. extra is nil or the arc adder's
// arcs, added on top of the dependence graph: the first sc.adBase of them
// are the base arcs whose in-degrees and successor lists baseArcs prepared,
// and the rest are LBD conversions (the adder keeps the graph acyclic and
// duplicate-free). When prefix is non-nil, its rows before cycle from are
// replayed rather than chosen: the caller guarantees that they are the rows
// this call would choose. sc must be bound to g and cfg's latencies. The
// returned Schedule is borrowed from the Scratch.
//
// A node whose predecessors have all issued waits in a calendar ring, in
// the bucket of the first cycle its predecessors' latencies let it issue,
// and joins the ready set in that cycle. The ready set is a bitset over
// positions in ord, and each cycle scans it in order until the issue slots
// fill, so a cycle costs one word per 64 nodes plus the nodes it touches.
// The issue decisions are those of a scan over every unscheduled node in
// priority order.
func (sc *Scratch) engine(g *dfg.Graph, cfg dlx.Config, extra []dfg.Arc, ord *order, method string, prefix *Schedule, from int) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !sc.acyclic {
		return nil, fmt.Errorf("core: %s: augmented dependence graph is cyclic", method)
	}
	n := g.N()
	lat := sc.lat
	// Past this cycle the engine gives up. A node that could issue only
	// later never enters the ring, so a ring longer than the limit is never
	// needed.
	limit := n*64 + 1024
	maxDelay := 1
	for _, l := range cfg.Latency {
		maxDelay = max(maxDelay, l)
	}
	ringLen := 1 << bits.Len(uint(min(maxDelay, limit)))
	mask := ringLen - 1

	readyAt := growInts(&sc.readyAt, n)
	clear(readyAt)
	links := growInt32s(&sc.links, 3*n+ringLen)
	// rem counts unissued predecessors. next links the nodes of one ring
	// bucket, head[b] is bucket b's first node and xhead[v] v's last extra
	// arc, each as index + 1 (0: none).
	rem, next, xhead, head := links[:n], links[n:2*n], links[2*n:3*n], links[3*n:]
	clear(head)
	if len(extra) == 0 {
		for v := range rem {
			rem[v] = int32(len(g.Pred(v)))
		}
		clear(xhead)
	} else {
		copy(rem, sc.baseRem)
		copy(xhead, sc.baseXhead)
		sc.xnext = sc.xnext[:sc.adBase]
		for i, a := range extra[sc.adBase:] {
			sc.xnext = append(sc.xnext, xhead[a.From])
			xhead[a.From] = int32(sc.adBase+i) + 1
			rem[a.To]++
		}
	}
	xnext := sc.xnext
	for c := range sc.occ {
		sc.occ[c] = sc.occ[c][:0]
	}

	sb := sc.acquire(n)
	cyc := sb.cycle
	done := 0
	// Replay: issue prefix's rows before from. Only the unit occupancy from
	// cycle from on is ever read again.
	var replay [][]int
	if prefix != nil {
		replay = prefix.Rows[:from]
	}
	for t, row := range replay {
		for _, v := range row {
			cyc[v] = t
			l := lat[v]
			if cls := g.Prog.Instrs[v].Class(); dlx.NeedsUnit(cls) && t+l > from {
				sc.occupy(cls, from, t+l)
			}
			ra := t + max(l, 1)
			for _, s := range g.Succ(v) {
				readyAt[s] = max(readyAt[s], ra)
				rem[s]--
			}
			for e := xhead[v]; e != 0; e = xnext[e-1] {
				s := extra[e-1].To
				readyAt[s] = max(readyAt[s], ra)
				rem[s]--
			}
		}
		done += len(row)
		sb.rowBk = append(sb.rowBk, row...)
		sb.rowEnd = append(sb.rowEnd, len(sb.rowBk))
	}
	ready := bitset.Make(sc.ready, n)
	sc.ready = ready
	nready, pending := 0, 0
	for v, r := range rem {
		if r != 0 || cyc[v] >= 0 {
			continue
		}
		if ra := readyAt[v]; ra <= from {
			ready.Set(int(ord.pos[v]))
			nready++
		} else if ra <= limit {
			next[v] = head[ra&mask]
			head[ra&mask] = int32(v) + 1
			pending++
		}
	}

	for cycle := from; done < n; cycle++ {
		if cycle > limit || nready+pending == 0 {
			// Nothing is ready or pending only when every remaining node
			// waits on one that could issue only past the limit.
			sc.release(sb)
			return nil, fmt.Errorf("core: %s: scheduler livelock at cycle %d (%d/%d scheduled)", method, limit+1, done, n)
		}
		b := cycle & mask
		for v := head[b]; v != 0; v = next[v-1] {
			ready.Set(int(ord.pos[v-1]))
			nready++
			pending--
		}
		head[b] = 0

		slots := cfg.Issue
		left := nready
		for w := 0; left > 0 && slots > 0; w++ {
			for word := ready[w]; word != 0 && slots > 0; word &= word - 1 {
				left--
				p := w<<6 | bits.TrailingZeros64(word)
				v := int(ord.nodes[p])
				cls := g.Prog.Instrs[v].Class()
				l := lat[v]
				if dlx.NeedsUnit(cls) {
					if !sc.fuFree(cls, cycle, cycle+l, cfg.Units[cls]) {
						continue
					}
					sc.occupy(cls, cycle, cycle+l)
				}
				cyc[v] = cycle
				sb.rowBk = append(sb.rowBk, v)
				slots--
				done++
				ready.Clear(p)
				nready--
				// A successor never issues in its predecessor's cycle, even
				// at latency 0: candidates are fixed before the cycle issues.
				ra := cycle + max(l, 1)
				release := func(s int32) {
					readyAt[s] = max(readyAt[s], ra)
					if rem[s]--; rem[s] == 0 && readyAt[s] <= limit {
						r := readyAt[s] & mask
						next[s] = head[r]
						head[r] = s + 1
						pending++
					}
				}
				for _, s := range g.Succ(v) {
					release(s)
				}
				for e := xhead[v]; e != 0; e = xnext[e-1] {
					release(extra[e-1].To)
				}
			}
		}
		sb.rowEnd = append(sb.rowEnd, len(sb.rowBk))
	}
	// Materialize the row views over the flat backing. The last row is never
	// empty (the loop stops in the cycle the last node issues); empty rows
	// before it stay nil.
	start := 0
	for _, end := range sb.rowEnd {
		if end == start {
			sb.rows = append(sb.rows, nil)
			continue
		}
		sb.rows = append(sb.rows, sb.rowBk[start:end:end])
		start = end
	}
	sb.s = Schedule{Prog: g.Prog, Graph: g, Cfg: cfg, Cycle: cyc, Rows: sb.rows, Method: method, scratch: sb}
	return &sb.s, nil
}

func (sc *Scratch) occupy(cls dlx.Class, from, until int) {
	occ := sc.occ[cls]
	for len(occ) < until {
		occ = append(occ, 0)
	}
	for c := from; c < until; c++ {
		occ[c]++
	}
	sc.occ[cls] = occ
}

func (sc *Scratch) fuFree(cls dlx.Class, from, until, limit int) bool {
	occ := sc.occ[cls]
	if until > len(occ) {
		until = len(occ)
	}
	for c := from; c < until; c++ {
		if occ[c] >= limit {
			return false
		}
	}
	return true
}
