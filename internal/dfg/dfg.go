// Package dfg builds the data-flow graph of §3.1: the dependence graph of
// one compiled DOACROSS iteration, augmented with the extra synchronization
// arcs that make the two synchronization conditions structural:
//
//   - an arc from each dependence-source store to its Send_Signal (a Sig can
//     not precede the corresponding Src), and
//   - an arc from each Wait_Signal to its dependence-sink load/store (a Wat
//     can not be behind the corresponding Snk).
//
// On top of the graph the package computes the paper's partition into Sig,
// Wat, Sigwat and plain components, and the synchronization paths
// SP(Wat, Sig) — shortest directed paths from a wait to its paired send
// inside a Sigwat component.
package dfg

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"doacross/internal/bitset"
	"doacross/internal/dep"
	"doacross/internal/tac"
)

// ArcKind classifies a dependence arc.
type ArcKind uint8

// Arc kinds.
const (
	// Data is a register def-use arc.
	Data ArcKind = iota
	// Mem is a loop-independent memory dependence arc (flow/anti/output at
	// distance 0 within the iteration).
	Mem
	// SrcToSend is the synchronization-condition arc source-store → send.
	SrcToSend
	// WaitToSnk is the synchronization-condition arc wait → sink.
	WaitToSnk
)

// String names the arc kind.
func (k ArcKind) String() string {
	switch k {
	case Data:
		return "data"
	case Mem:
		return "mem"
	case SrcToSend:
		return "src->send"
	case WaitToSnk:
		return "wait->snk"
	}
	return fmt.Sprintf("ArcKind(%d)", int(k))
}

// Arc is one directed dependence arc between instruction indices.
type Arc struct {
	From, To int32
	Kind     ArcKind
}

// CompKind classifies a weakly connected component per §3.1.
type CompKind uint8

// Component kinds.
const (
	Plain  CompKind = iota
	Sig             // contains sends only
	Wat             // contains waits only
	Sigwat          // contains both
)

// String names the component kind.
func (k CompKind) String() string {
	switch k {
	case Plain:
		return "plain"
	case Sig:
		return "Sig"
	case Wat:
		return "Wat"
	case Sigwat:
		return "Sigwat"
	}
	return fmt.Sprintf("CompKind(%d)", int(k))
}

// Component is one weakly connected component of the graph.
type Component struct {
	ID    int32
	Kind  CompKind
	Nodes []int32 // instruction indices, ascending
	Waits []int32
	Sends []int32
}

// SyncPath is a synchronization path SP(Wat, Sig): the shortest directed
// path from a wait to its corresponding send within a Sigwat component.
type SyncPath struct {
	// Wait and Send are the endpoint instruction indices.
	Wait, Send int32
	// Nodes is the path, wait first, send last.
	Nodes []int32
	// Distance is the dependence distance d of the pair.
	Distance int32
	// Signal is the signal name, in the program's name table.
	Signal tac.Sym
	// Comp is the owning component ID.
	Comp int32
}

// Weight is the paper's ordering key (n/d)·|SP| divided by n: |SP|/d. Paths
// are scheduled in descending Weight order.
func (p SyncPath) Weight() float64 { return float64(len(p.Nodes)) / float64(p.Distance) }

// Graph is the augmented data-flow graph of one iteration.
type Graph struct {
	Prog *tac.Program
	// Arcs lists every arc with its kind, in discovery order.
	Arcs []Arc

	// The adjacency in compressed sparse row form, over instruction
	// indices (0-based positions in Prog.Instrs): node v's successors are
	// succ[succOff[v]:succOff[v+1]] and its predecessors
	// pred[predOff[v]:predOff[v+1]], each in arc order. All four share one
	// block.
	succOff, predOff, succ, pred []int32

	comps []Component
	// compOf maps node -> component ID.
	compOf []int32
	paths  []SyncPath
}

// Build constructs the graph for a compiled program. The dependence analysis
// must be the one the program's synchronized loop was built from.
//
// The builder is allocation-lean by design: arcs are collected in pooled
// scratch of at least their estimated number (deduplicated with a dense bit
// matrix, preserving first-occurrence order) and published at their final
// number, and the adjacency is one exactly sized block of offsets and
// targets filled by a counting pass.
func Build(p *tac.Program, a *dep.Analysis) (*Graph, error) {
	n := len(p.Instrs)
	g := &Graph{Prog: p}

	// Upper bound on the arc count before deduplication: one per temp use,
	// one per distance-0 memory dependence, two per synchronized dependence.
	est := 0
	var useBuf [3]int
	for i := range p.Instrs {
		est += len(p.Instrs[i].AppendUses(useBuf[:0]))
	}
	for _, d := range a.Deps {
		if d.Distance == 0 {
			est++
		}
	}
	est += 2 * len(p.Sync.Synced)
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	sc.arcs = slices.Grow(sc.arcs[:0], est)
	sc.seen = bitset.Make(sc.seen, n*n)
	addArc := func(from, to int, kind ArcKind) {
		if from == to {
			return
		}
		if k := from*n + to; !sc.seen.Has(k) {
			sc.seen.Set(k)
			sc.arcs = append(sc.arcs, Arc{From: int32(from), To: int32(to), Kind: kind})
		}
	}

	// 1. Register def-use arcs. Each temp has exactly one definition.
	maxTemp := p.NumTemps
	for i := range p.Instrs {
		maxTemp = max(maxTemp, int(p.Instrs[i].Dst))
	}
	defOf := slices.Grow(sc.ints[:0], maxTemp+1)[:maxTemp+1] // temp -> defining node + 1; 0 = none
	clear(defOf)
	sc.ints = defOf
	for i := range p.Instrs {
		if t := p.Instrs[i].Dst; t > 0 {
			if prev := defOf[t]; prev != 0 {
				return nil, fmt.Errorf("dfg: temp t%d defined twice (instrs %d and %d)", t, prev, i+1)
			}
			defOf[t] = i + 1
		}
	}
	for i := range p.Instrs {
		for _, t := range p.Instrs[i].AppendUses(useBuf[:0]) {
			if t <= 0 || t >= len(defOf) || defOf[t] == 0 {
				return nil, fmt.Errorf("dfg: instr %d uses undefined temp t%d", i+1, t)
			}
			d := defOf[t] - 1
			if d >= i {
				return nil, fmt.Errorf("dfg: instr %d uses temp t%d defined later (instr %d)", i+1, t, d+1)
			}
			addArc(d, i, Data)
		}
	}

	// 2. Loop-independent memory dependence arcs from the analysis.
	refInstr := func(r dep.Ref) (int, bool) {
		var v int32
		var ok bool
		switch {
		case r.Array != nil && r.Merge:
			v, ok = p.MergeLoad[r.Array]
		case r.Array != nil:
			v, ok = p.ArrayInstr[r.Array]
		default:
			v, ok = p.ScalarInstr[tac.ScalarKey{Stmt: r.Stmt, Name: r.ScalarName, Write: r.Write}]
		}
		return int(v), ok
	}
	for _, d := range a.Deps {
		if d.Distance != 0 {
			continue
		}
		src, ok1 := refInstr(d.Src)
		snk, ok2 := refInstr(d.Snk)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("dfg: dependence %v has unmapped reference", d)
		}
		addArc(src, snk, Mem)
	}

	// 3. Synchronization-condition arcs for every synchronized dependence.
	for k := range p.Sync.Synced {
		d := p.Sync.SyncedDep(k)
		label := p.Sync.Base.Body[d.Src.Stmt].Label
		send := p.SendFor(label)
		if send < 0 {
			return nil, fmt.Errorf("dfg: missing send for signal %s", label)
		}
		src, ok := refInstr(d.Src)
		if !ok {
			return nil, fmt.Errorf("dfg: dependence %v source unmapped", *d)
		}
		addArc(src, send, SrcToSend)
		wi := p.WaitFor(d.Snk.Stmt, label, d.Distance)
		if wi < 0 {
			return nil, fmt.Errorf("dfg: missing wait for %v", *d)
		}
		snk, ok := refInstr(d.Snk)
		if !ok {
			return nil, fmt.Errorf("dfg: dependence %v sink unmapped", *d)
		}
		addArc(wi, snk, WaitToSnk)
	}

	// Finalize: publish the arcs and lay out the adjacency in one block.
	// Filling each node's rows in arc order keeps every successor and
	// predecessor list in arc discovery order.
	g.Arcs = append(make([]Arc, 0, len(sc.arcs)), sc.arcs...)
	m := len(g.Arcs)
	adj := make([]int32, 2*(n+1)+2*m)
	g.succOff, g.predOff = adj[:n+1:n+1], adj[n+1:2*n+2:2*n+2]
	g.succ, g.pred = adj[2*n+2:2*n+2+m:2*n+2+m], adj[2*n+2+m:]
	for _, a := range g.Arcs {
		g.succOff[a.From+1]++
		g.predOff[a.To+1]++
	}
	for v := 0; v < n; v++ {
		g.succOff[v+1] += g.succOff[v]
		g.predOff[v+1] += g.predOff[v]
	}
	// Place each arc at its node's cursor, the node's offset, advancing it.
	// The advanced offsets are the next nodes' starts, shifted into place
	// after the pass.
	for _, a := range g.Arcs {
		g.succ[g.succOff[a.From]] = a.To
		g.succOff[a.From]++
		g.pred[g.predOff[a.To]] = a.From
		g.predOff[a.To]++
	}
	copy(g.succOff[1:], g.succOff[:n])
	copy(g.predOff[1:], g.predOff[:n])
	g.succOff[0], g.predOff[0] = 0, 0

	g.computeComponents()
	g.computePaths(sc)
	return g, nil
}

// buildScratch is Build's working storage: the arc list before it is
// published, the dedup bit matrix, the def table, and the path search's
// queue, predecessor table and found paths.
type buildScratch struct {
	arcs  []Arc
	seen  bitset.Bits
	ints  []int
	prev  []int32
	queue []int32
	found []SyncPath
	nodes []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Succ returns the successors of node v in arc order. The slice is the
// graph's own storage: callers read it and must not modify it.
func (g *Graph) Succ(v int) []int32 { return g.succ[g.succOff[v]:g.succOff[v+1]] }

// Pred returns the predecessors of node v in arc order. The slice is the
// graph's own storage: callers read it and must not modify it.
func (g *Graph) Pred(v int) []int32 { return g.pred[g.predOff[v]:g.predOff[v+1]] }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.succOff) - 1 }

// computeComponents finds weakly connected components (union-find) and
// classifies them.
func (g *Graph) computeComponents() {
	n := g.N()
	// One scratch block: union-find parents, root->component map, and the
	// three per-component counters (nc <= n).
	scratch := make([]int32, 5*n)
	parent := scratch[:n]
	for i := range parent {
		parent[i] = int32(i)
	}
	for _, a := range g.Arcs {
		ufUnion(parent, a.From, a.To)
	}
	// Assign component IDs in order of first encounter and count members,
	// then carve the per-component node/wait/send lists out of one slab,
	// which also holds compOf.
	rootToComp := scratch[n : 2*n] // root -> comp ID + 1; 0 = unassigned
	syncTotal := 0
	for i := range g.Prog.Instrs {
		if g.Prog.Instrs[i].IsSync() {
			syncTotal++
		}
	}
	slab := make([]int32, 2*n+syncTotal)
	g.compOf = slab[:n:n]
	nodeSlab, syncSlab := slab[n:2*n], slab[2*n:]
	var nc int32
	for i := 0; i < n; i++ {
		r := ufFind(parent, int32(i))
		if rootToComp[r] == 0 {
			nc++
			rootToComp[r] = nc
		}
		g.compOf[i] = rootToComp[r] - 1
	}
	g.comps = make([]Component, nc)
	counts := scratch[2*n : 2*n+3*int(nc)]
	nodeCnt, waitCnt, sendCnt := counts[:nc], counts[nc:2*nc], counts[2*nc:]
	for i := 0; i < n; i++ {
		id := g.compOf[i]
		nodeCnt[id]++
		switch g.Prog.Instrs[i].Op {
		case tac.Wait:
			waitCnt[id]++
		case tac.Send:
			sendCnt[id]++
		}
	}
	var nodeOff, syncOff int32
	for id := int32(0); id < nc; id++ {
		c := &g.comps[id]
		c.ID = id
		c.Nodes = nodeSlab[nodeOff : nodeOff : nodeOff+nodeCnt[id]]
		nodeOff += nodeCnt[id]
		c.Waits = syncSlab[syncOff : syncOff : syncOff+waitCnt[id]]
		syncOff += waitCnt[id]
		c.Sends = syncSlab[syncOff : syncOff : syncOff+sendCnt[id]]
		syncOff += sendCnt[id]
	}
	for i := 0; i < n; i++ {
		c := &g.comps[g.compOf[i]]
		c.Nodes = append(c.Nodes, int32(i))
		switch g.Prog.Instrs[i].Op {
		case tac.Wait:
			c.Waits = append(c.Waits, int32(i))
		case tac.Send:
			c.Sends = append(c.Sends, int32(i))
		}
	}
	for i := range g.comps {
		c := &g.comps[i]
		switch {
		case len(c.Waits) > 0 && len(c.Sends) > 0:
			c.Kind = Sigwat
		case len(c.Sends) > 0:
			c.Kind = Sig
		case len(c.Waits) > 0:
			c.Kind = Wat
		default:
			c.Kind = Plain
		}
	}
}

// ufFind is union-find root lookup with path halving.
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

func ufUnion(parent []int32, a, b int32) {
	ra, rb := ufFind(parent, a), ufFind(parent, b)
	if ra != rb {
		parent[ra] = rb
	}
}

// computePaths finds SP(Wat, Sig) for every synchronization pair whose wait
// and send fall in the same Sigwat component and are connected by a directed
// path. Paths are sorted by descending weight |SP|/d (the paper's
// (n/d)·|SP| with the common factor n dropped), ties broken by wait index.
// The paths are found in sc and published in two exactly sized blocks, the
// paths and their nodes.
func (g *Graph) computePaths(sc *buildScratch) {
	sc.found, sc.nodes = sc.found[:0], sc.nodes[:0]
	sc.prev = slices.Grow(sc.prev[:0], g.N())[:g.N()]
	for _, c := range g.comps {
		if c.Kind != Sigwat {
			continue
		}
		for _, w := range c.Waits {
			win := &g.Prog.Instrs[w]
			for _, s := range c.Sends {
				if g.Prog.Instrs[s].Signal != win.Signal {
					continue
				}
				start := len(sc.nodes)
				if g.shortestPath(sc, w, s) {
					// Only the length of Nodes counts until the nodes are
					// published: sc.nodes may move as it grows.
					sc.found = append(sc.found, SyncPath{
						Wait: w, Send: s, Nodes: sc.nodes[start:len(sc.nodes):len(sc.nodes)],
						Distance: win.SigDist, Signal: win.Signal, Comp: c.ID,
					})
				}
			}
		}
	}
	if len(sc.found) == 0 {
		return
	}
	g.paths = append(make([]SyncPath, 0, len(sc.found)), sc.found...)
	nodes := append(make([]int32, 0, len(sc.nodes)), sc.nodes...)
	off := 0
	for i := range g.paths {
		k := len(g.paths[i].Nodes)
		g.paths[i].Nodes = nodes[off : off+k : off+k]
		off += k
	}
	clear(sc.found)
	if len(g.paths) > 1 {
		sort.Stable(pathsByWeight(g.paths))
	}
}

// pathsByWeight orders synchronization paths by descending weight, ties by
// wait index (typed to keep graph building off the reflection sorter).
type pathsByWeight []SyncPath

func (s pathsByWeight) Len() int      { return len(s) }
func (s pathsByWeight) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s pathsByWeight) Less(i, j int) bool {
	wi, wj := s[i].Weight(), s[j].Weight()
	if wi != wj {
		return wi > wj
	}
	return s[i].Wait < s[j].Wait
}

// shortestPath appends the node sequence of a shortest directed path from
// src to dst to sc.nodes and reports whether one exists. It searches
// breadth first with sc's queue and predecessor table (of length N).
func (g *Graph) shortestPath(sc *buildScratch, src, dst int32) bool {
	prev := sc.prev
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	sc.queue = append(sc.queue[:0], src)
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		if v == dst {
			hops := 1
			for x := dst; x != src; x = prev[x] {
				hops++
			}
			start := len(sc.nodes)
			sc.nodes = slices.Grow(sc.nodes, hops)[:start+hops]
			path := sc.nodes[start:]
			for x, i := dst, hops-1; ; x, i = prev[x], i-1 {
				path[i] = x
				if x == src {
					break
				}
			}
			return true
		}
		for _, w := range g.Succ(int(v)) {
			if prev[w] == -1 {
				prev[w] = v
				sc.queue = append(sc.queue, w)
			}
		}
	}
	return false
}

// Components returns the weakly connected components.
func (g *Graph) Components() []Component { return g.comps }

// ComponentOf returns the component ID of a node.
func (g *Graph) ComponentOf(node int) int { return int(g.compOf[node]) }

// Component returns the component with the given ID.
func (g *Graph) Component(id int) Component { return g.comps[id] }

// SyncPaths returns the synchronization paths in scheduling order
// (descending |SP|/d).
func (g *Graph) SyncPaths() []SyncPath { return g.paths }

// Topological returns a topological order of all nodes (by Kahn's algorithm,
// smallest instruction index first among ready nodes, so program order is a
// fixpoint). An error is returned if the graph has a cycle, which would
// indicate a builder bug.
func (g *Graph) Topological() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Pred(i))
	}
	// Min-heap replaced by simple ordered scan: n is small (loop bodies).
	var order []int
	used := make([]bool, n)
	for len(order) < n {
		picked := -1
		for i := 0; i < n; i++ {
			if !used[i] && indeg[i] == 0 {
				picked = i
				break
			}
		}
		if picked == -1 {
			return nil, fmt.Errorf("dfg: dependence cycle detected")
		}
		used[picked] = true
		order = append(order, picked)
		for _, w := range g.Succ(picked) {
			indeg[w]--
		}
	}
	return order, nil
}

// CriticalPathLengths returns, for every node, the length (in latency-
// weighted cycles) of the longest path from the node to any sink, using the
// supplied latency function. Classic list-scheduling priority.
func (g *Graph) CriticalPathLengths(latency func(*tac.Instr) int) ([]int, error) {
	order, err := g.Topological()
	if err != nil {
		return nil, err
	}
	n := g.N()
	dist := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		lat := latency(&g.Prog.Instrs[v])
		best := 0
		for _, w := range g.Succ(v) {
			if dist[w] > best {
				best = dist[w]
			}
		}
		dist[v] = lat + best
	}
	return dist, nil
}

// Ancestors returns the set of nodes from which the given node is reachable
// (excluding the node itself).
func (g *Graph) Ancestors(node int) map[int]bool {
	out := map[int]bool{}
	stack := slices.Clone(g.Pred(node))
	for len(stack) > 0 {
		v := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if out[v] {
			continue
		}
		out[v] = true
		for _, p := range g.Pred(v) {
			if !out[int(p)] {
				stack = append(stack, p)
			}
		}
	}
	return out
}

// PairArcs returns the artificial send→wait arcs the new scheduler adds to
// convert cross-component synchronization pairs to LFD (§3.2: Sig graphs are
// scheduled before, and Wat graphs after, all Sigwat graphs). Following the
// paper, an arc is added exactly when the wait lives in a Wat component or
// the send lives in a Sig component. This is provably acyclic: an added arc
// can only leave a component that contains a send and enter one that
// contains a wait, Sig components contain no waits and Wat components no
// sends, so every added-arc chain is Sig → Sigwat → Wat and terminates.
// Sigwat↔Sigwat cross pairs (which can be mutually recursive) are left to
// the priority heuristic.
func (g *Graph) PairArcs() []Arc {
	var out []Arc
	for i := range g.Prog.Instrs {
		if g.Prog.Instrs[i].Op != tac.Wait {
			continue
		}
		s := g.Prog.SendOf(i)
		if s < 0 {
			continue
		}
		if g.compOf[s] == g.compOf[i] {
			continue
		}
		waitComp := g.comps[g.compOf[i]].Kind
		sendComp := g.comps[g.compOf[s]].Kind
		if waitComp == Wat || sendComp == Sig {
			out = append(out, Arc{From: int32(s), To: int32(i), Kind: SrcToSend})
		}
	}
	return out
}

// SyncInfo summarizes the graph for reports.
func (g *Graph) SyncInfo() string {
	counts := map[CompKind]int{}
	for _, c := range g.comps {
		counts[c.Kind]++
	}
	return fmt.Sprintf("%d nodes, %d arcs, components: %d Sigwat, %d Sig, %d Wat, %d plain; %d sync paths",
		g.N(), len(g.Arcs), counts[Sigwat], counts[Sig], counts[Wat], counts[Plain], len(g.paths))
}
