package core

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"
	"sync"

	"doacross/internal/bitset"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/tac"
)

// Scratch is the reusable working state of the heuristic schedulers: every
// slice the cycle engine, the arc adder, the lazy-wait analysis and the
// priority computation need, grown once to the largest problem seen and
// reused. Steady-state scheduling of a warm Scratch allocates nothing.
//
// A Scratch also keeps what it derived from the last graph it scheduled,
// and the next call on the same graph reuses it: the graph's topological
// order; under the same latency vector, the critical paths and the list and
// synchronization priority orders (the latter also under the same
// SyncOptions); and the sync heuristic's arc adder holding the pair and
// lazy-wait arcs of the same SyncOptions. The key is the graph pointer:
// graphs are immutable, and the Scratch holds a reference to its graph, so
// the address cannot be reused by a new one meanwhile. Scheduling the same
// graph on several machines, as the pipeline does for each request, derives
// these once per graph and latency vector.
//
// Lifetime rules:
//
//   - A Scratch is NOT safe for concurrent use; give each worker its own.
//   - The *Schedule returned by a Scratch method is BORROWED: its Cycle and
//     Rows storage belongs to the Scratch and is recycled by the next call
//     on the same Scratch. Call Schedule.Clone to keep it (the pipeline
//     clones before publishing to the cache, which only ever holds
//     immutable values).
//   - The zero value is ready to use.
type Scratch struct {
	// Cycle-engine state.
	readyAt []int   // per-node earliest issue cycle; Kahn's in-degrees in bind
	links   []int32 // rem, calendar links, extra-arc heads, calendar heads
	xnext   []int32 // extra arc -> the previous one leaving its From, index + 1
	ready   bitset.Bits
	occ     [dlx.NumClasses][]int

	// Schedule buffers: all ever created, and the currently free ones.
	all  []*schedBuf
	free []*schedBuf

	// The arc adder syncImpl schedules with, and a test's substitute for it
	// (nil: ad).
	ad    dagAdder
	adder arcAdder

	// Per-graph state (see the type's doc). graphBuf backs topo, the orders
	// and the base arcs' in-degrees and heads, latBuf lat and cp; xnext[:adBase]
	// links the base arcs.
	g         *dfg.Graph
	acyclic   bool
	topo      []int32 // Kahn order of g; shorter than g.N() when g is cyclic
	ident     order   // program order (nodes and pos are the same slice)
	latency   [dlx.NumClasses]int
	latOK     bool  // lat and cp hold latency's values
	lat       []int // per-node latency
	cp        []int // per-node critical path (valid when acyclic)
	cpList    order // the CriticalPath list order
	cpListOK  bool
	syncOrd   order // the sync order under AscendingSP = syncAsc
	syncAsc   bool
	syncOK    bool
	adKey     SyncOptions // the NoPairArcs and NoLazyWaits the adder's base arcs follow
	adBase    int         // number of base arcs; later ones are LBD conversions
	adOK      bool
	baseRem   []int32 // per-node predecessors in g plus the base arcs
	baseXhead []int32 // per-node last base arc leaving it, index + 1 (0: none)
	graphBuf  []int32
	latBuf    []int

	// Lazy-wait / priority state.
	desc    bitset.Bits
	inPath  bitset.Bits
	visited bitset.Bits
	stack   []int32
	queue   []int32
	anc     []int32
	lazyBuf []dfg.Arc
	pairBuf []dfg.Arc
	prioBuf []int // priority, class and rank
}

// NewScratch returns an empty Scratch (equivalent to new(Scratch); provided
// for symmetry with the facade).
func NewScratch() *Scratch { return &Scratch{} }

// schedBuf is one reusable Schedule allocation: the Schedule value plus the
// backing arrays its Cycle and Rows views are carved from.
type schedBuf struct {
	s      Schedule
	cycle  []int
	rowBk  []int // issued nodes, all rows concatenated
	rowEnd []int // rowEnd[c] = end offset of row c in rowBk
	rows   [][]int
}

func growInts(buf *[]int, n int) []int {
	b := *buf
	if cap(b) < n {
		b = make([]int, n)
		*buf = b
	}
	return b[:n]
}

func growInt32s(buf *[]int32, n int) []int32 {
	b := *buf
	if cap(b) < n {
		b = make([]int32, n)
		*buf = b
	}
	return b[:n]
}

// reset reclaims every schedule buffer, including the one borrowed by the
// previous call's returned Schedule. Called on entry to each exported
// Scratch method.
func (sc *Scratch) reset() {
	sc.free = append(sc.free[:0], sc.all...)
}

func (sc *Scratch) acquire(n int) *schedBuf {
	var sb *schedBuf
	if k := len(sc.free) - 1; k >= 0 {
		sb = sc.free[k]
		sc.free = sc.free[:k]
	} else {
		sb = &schedBuf{}
		sc.all = append(sc.all, sb)
	}
	sb.cycle = growInts(&sb.cycle, n)
	for i := range sb.cycle {
		sb.cycle[i] = -1
	}
	sb.rowBk = sb.rowBk[:0]
	sb.rowEnd = sb.rowEnd[:0]
	sb.rows = sb.rows[:0]
	return sb
}

func (sc *Scratch) release(sb *schedBuf) { sc.free = append(sc.free, sb) }

// releaseSched returns a borrowed schedule's buffer to the freelist (no-op
// for cloned or externally built schedules).
func (sc *Scratch) releaseSched(s *Schedule) {
	if s != nil && s.scratch != nil {
		sc.release(s.scratch)
	}
}

// bind points the per-graph state at g on a machine with cfg's latencies,
// keeping what is still valid: everything while g is the graph of the last
// call, and the latency-dependent parts while the latencies are the same.
// Each part is marked valid only once it is complete, so a call that
// panics halfway leaves nothing stale for the next call (the pipeline
// recovers a stage's panic and keeps the worker's Scratch).
func (sc *Scratch) bind(g *dfg.Graph, cfg dlx.Config) {
	n := g.N()
	if g != sc.g {
		sc.g = nil
		sc.latOK, sc.adOK = false, false
		buf := growInt32s(&sc.graphBuf, 8*n)
		sc.topo = buf[:0:n]
		sc.ident = order{nodes: buf[n : 2*n], pos: buf[n : 2*n]}
		sc.cpList = order{nodes: buf[2*n : 3*n], pos: buf[3*n : 4*n]}
		sc.syncOrd = order{nodes: buf[4*n : 5*n], pos: buf[5*n : 6*n]}
		sc.baseRem, sc.baseXhead = buf[6*n:7*n], buf[7*n:]
		for v := range sc.ident.nodes {
			sc.ident.nodes[v] = int32(v)
		}
		indeg := growInts(&sc.readyAt, n)
		for v := 0; v < n; v++ {
			if indeg[v] = len(g.Pred(v)); indeg[v] == 0 {
				sc.topo = append(sc.topo, int32(v))
			}
		}
		for head := 0; head < len(sc.topo); head++ {
			for _, w := range g.Succ(int(sc.topo[head])) {
				if indeg[w]--; indeg[w] == 0 {
					sc.topo = append(sc.topo, w)
				}
			}
		}
		sc.acyclic = len(sc.topo) == n
		sc.g = g
	}
	if sc.latOK && sc.latency == cfg.Latency {
		return
	}
	sc.latOK, sc.cpListOK, sc.syncOK = false, false, false
	buf := growInts(&sc.latBuf, 2*n)
	sc.lat, sc.cp = buf[:n], buf[n:]
	for v := range g.Prog.Instrs {
		sc.lat[v] = cfg.Latency[g.Prog.Instrs[v].Class()]
	}
	// Latency-weighted longest path to a sink, the values of
	// Graph.CriticalPathLengths (they do not depend on the topological order).
	for i := n - 1; i >= 0 && sc.acyclic; i-- {
		v := sc.topo[i]
		best := 0
		for _, w := range g.Succ(int(v)) {
			best = max(best, sc.cp[w])
		}
		sc.cp[v] = sc.lat[v] + best
	}
	sc.latency, sc.latOK = cfg.Latency, true
}

var errCycle = errors.New("dfg: dependence cycle detected")

// List builds the baseline list schedule into scratch state. The returned
// schedule is borrowed until the next call on this Scratch.
func (sc *Scratch) List(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	sc.reset()
	return sc.listImpl(g, cfg, pri)
}

func (sc *Scratch) listImpl(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	sc.bind(g, cfg)
	ord := &sc.ident
	if pri == CriticalPath {
		if !sc.acyclic {
			return nil, errCycle
		}
		if !sc.cpListOK {
			// Longer critical path = higher priority = lower rank value.
			priority := growInts(&sc.prioBuf, g.N())
			for v, c := range sc.cp {
				priority[v] = -c
			}
			sc.cpList.sort(priority)
			sc.cpListOK = true
		}
		ord = &sc.cpList
	}
	return sc.engine(g, cfg, nil, ord, "list", nil, 0)
}

// Sync builds the paper's synchronization-aware schedule into scratch
// state. The returned schedule is borrowed until the next call.
func (sc *Scratch) Sync(g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	return sc.SyncWithOptions(g, cfg, SyncOptions{})
}

// SyncWithOptions is Sync with ablation knobs.
func (sc *Scratch) SyncWithOptions(g *dfg.Graph, cfg dlx.Config, opt SyncOptions) (*Schedule, error) {
	sc.reset()
	return sc.syncImpl(g, cfg, opt)
}

func (sc *Scratch) syncImpl(g *dfg.Graph, cfg dlx.Config, opt SyncOptions) (*Schedule, error) {
	sc.bind(g, cfg)
	ad := sc.baseArcs(g, opt)
	ord := &sc.ident
	if !opt.NoSPPriority {
		if !sc.acyclic {
			return nil, errCycle
		}
		if !sc.syncOK || sc.syncAsc != opt.AscendingSP {
			sc.syncOK = false
			sc.syncOrd.sort(sc.syncPriority(g, opt))
			sc.syncOK, sc.syncAsc = true, opt.AscendingSP
		}
		ord = &sc.syncOrd
	}
	best, err := sc.engine(g, cfg, ad.arcs(), ord, "sync", nil, 0)
	if err != nil {
		return nil, err
	}
	if opt.NoPairArcs {
		return best, nil
	}
	// Extended LBD→LFD conversion: for each pair still scheduled backward,
	// tentatively force the send before the wait (if that keeps the graph
	// acyclic — e.g. a pair whose wait and send share a component only
	// through an address subexpression has no directed wait→send path) and
	// keep the arc only when the rescheduled result is no worse. Serializing
	// one pair can delay another pair's send, so each candidate is verified
	// rather than assumed.
	//
	// A candidate repeats best's rows before the wait's cycle c, so it
	// replays them and schedules only from c on. By induction on the cycle
	// t < c: with the rows before t equal, both runs start t with the same
	// issued nodes, unit occupancy and ready times, except that the wait is
	// not ready in the candidate, because its new predecessor, the send,
	// issues at or after c in best and so has not issued. In best the wait
	// does not issue at t either, so it takes no slot or unit there, and
	// every other node meets the same slots and units in the same priority
	// order: row t is the same.
	//
	// The adder is marked invalid while the loop changes it, so a call that
	// panics halfway leaves it to be rebuilt.
	sc.adOK = false
	for i := range g.Prog.Instrs {
		if g.Prog.Instrs[i].Op != tac.Wait {
			continue
		}
		s := g.Prog.SendOf(i)
		if s < 0 {
			continue
		}
		if best.Cycle[s] < best.Cycle[i] {
			continue // already LFD
		}
		if !ad.add(g, dfg.Arc{From: int32(s), To: int32(i), Kind: dfg.SrcToSend}) {
			continue
		}
		cand, err := sc.engine(g, cfg, ad.arcs(), ord, "sync", best, best.Cycle[i])
		if err != nil || !betterThan(cand, best) {
			sc.releaseSched(cand)
			ad.removeLast()
			continue
		}
		sc.releaseSched(best)
		best = cand
	}
	sc.adOK = true
	return best, nil
}

// baseArcs returns the arc adder holding the pair and lazy-wait arcs opt
// asks for, and nothing else: the adder left by the last call when it holds
// g's arcs under the same options, with that call's LBD conversions removed.
func (sc *Scratch) baseArcs(g *dfg.Graph, opt SyncOptions) arcAdder {
	ad := sc.adder
	if ad == nil {
		ad = &sc.ad
	}
	key := SyncOptions{NoPairArcs: opt.NoPairArcs, NoLazyWaits: opt.NoLazyWaits}
	if sc.adOK && sc.adKey == key {
		for len(ad.arcs()) > sc.adBase {
			ad.removeLast()
		}
		return ad
	}
	sc.adOK = false
	ad.reset(g, sc.topo)
	if !opt.NoPairArcs {
		// Provably safe Sig/Wat pair arcs first (the paper's rule).
		for _, a := range sc.pairArcs(g) {
			ad.add(g, a)
		}
	}
	if !opt.NoLazyWaits {
		for _, a := range sc.lazyWaitArcs(g) {
			ad.add(g, a)
		}
	}
	// The engine starts every call on these arcs from their in-degrees and
	// successor lists.
	base := ad.arcs()
	for v := range sc.baseRem {
		sc.baseRem[v] = int32(len(g.Pred(v)))
	}
	clear(sc.baseXhead)
	sc.xnext = sc.xnext[:0]
	for i, a := range base {
		sc.xnext = append(sc.xnext, sc.baseXhead[a.From])
		sc.baseXhead[a.From] = int32(i) + 1
		sc.baseRem[a.To]++
	}
	sc.adKey, sc.adBase, sc.adOK = key, len(base), true
	return ad
}

// Best builds the sync schedule and both list baselines into scratch state
// and returns the one with the lowest predicted parallel time. The returned
// schedule is borrowed until the next call.
func (sc *Scratch) Best(g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	sc.reset()
	best, err := sc.syncImpl(g, cfg, SyncOptions{})
	if err != nil {
		return nil, err
	}
	for _, pri := range []ListPriority{CriticalPath, ProgramOrder} {
		s, err := sc.listImpl(g, cfg, pri)
		if err != nil {
			return nil, err
		}
		if betterThan(s, best) {
			sc.releaseSched(best)
			best = s
		} else {
			sc.releaseSched(s)
		}
	}
	return best, nil
}

// betterThan compares schedules by predicted parallel time at a large and a
// small trip count (the recurrence slope dominates the first, the schedule
// length the second), strictly.
func betterThan(a, b *Schedule) bool {
	la, lb := a.ChainBound(1024), b.ChainBound(1024)
	if la != lb {
		return la < lb
	}
	return a.CompletionLength() < b.CompletionLength()
}

// arcAdder accepts extra ordering arcs on top of a dependence graph: add
// refuses an arc that already exists (in the graph or among the accepted
// arcs) or would close a cycle, and arcs lists the accepted ones in
// acceptance order. syncImpl schedules with whatever it accepts, so two
// adders making the same decisions produce the same schedules.
type arcAdder interface {
	reset(g *dfg.Graph, topo []int32) // topo: g's Kahn order, as Scratch.topo
	add(g *dfg.Graph, arc dfg.Arc) bool
	removeLast() // undoes the most recent successful add
	arcs() []dfg.Arc
}

// dagAdder is the arc adder of the heuristic schedulers. It keeps a
// topological order of the graph plus its accepted arcs and repairs it
// incrementally (Pearce and Kelly's dynamic topological sort): an arc that
// agrees with the order cannot close a cycle and costs nothing, and one
// that disagrees is checked and repaired by searches confined to the nodes
// between its endpoints in the order. Removing an arc keeps the order
// valid. The duplicate test is a hash set of every arc's endpoints. All
// state is grown once and reused, so a warm adder allocates nothing.
type dagAdder struct {
	extra   []dfg.Arc
	outHead []int32 // node -> last accepted arc leaving it, index + 1 (0: none)
	inHead  []int32 // node -> last accepted arc entering it, index + 1
	outNext []int32 // accepted arc -> the previous one leaving its From
	inNext  []int32 // accepted arc -> the previous one entering its To

	ord []int32 // node -> position in the topological order

	set   []uint64 // open addressing: from<<32 | to + 1 per arc, 0: empty
	setN  int      // keys held
	mark  bitset.Bits
	stack []int32
	fwd   []int32 // the repair's descendants of the arc's head
	bwd   []int32 // the repair's ancestors of the arc's tail
	pool  []int32
}

func (d *dagAdder) arcs() []dfg.Arc { return d.extra }

// reset clears the adder for g, orders g's nodes by topo and fills the arc
// set with g's arcs. topo is a Kahn order of g, shorter than g.N() when g is
// cyclic (which scheduling rejects anyway): the nodes it leaves out take the
// last positions in index order.
func (d *dagAdder) reset(g *dfg.Graph, topo []int32) {
	n := g.N()
	d.extra, d.outNext, d.inNext = d.extra[:0], d.outNext[:0], d.inNext[:0]
	d.outHead, d.inHead = growInt32s(&d.outHead, n), growInt32s(&d.inHead, n)
	clear(d.outHead)
	clear(d.inHead)
	d.ord = growInt32s(&d.ord, n)
	for v := range d.ord {
		d.ord[v] = -1
	}
	for i, v := range topo {
		d.ord[v] = int32(i)
	}
	pos := int32(len(topo))
	for v, p := range d.ord {
		if p < 0 {
			d.ord[v] = pos
			pos++
		}
	}
	d.mark = bitset.Make(d.mark, n)

	d.setN = 0
	d.rehash(g, max(64, 4*len(g.Arcs)))
}

// rehash rebuilds the arc set with size slots (a power of two at least 64):
// first g's arcs, then the accepted ones in order, which keeps removing the
// most recent key an exact undo.
func (d *dagAdder) rehash(g *dfg.Graph, size int) {
	size = 1 << bits.Len(uint(size-1))
	if cap(d.set) < size {
		d.set = make([]uint64, size)
	}
	d.set = d.set[:size]
	clear(d.set)
	d.setN = 0
	for _, a := range g.Arcs {
		d.insert(a.From, a.To)
	}
	for _, a := range d.extra {
		d.insert(a.From, a.To)
	}
}

// slot returns the slot holding from→to, or the empty slot where it
// belongs.
func (d *dagAdder) slot(from, to int32) int {
	key := uint64(from)<<32 | uint64(to) + 1
	mask := len(d.set) - 1
	k := int((key*0x9E3779B97F4A7C15)>>32) & mask
	for d.set[k] != 0 && d.set[k] != key {
		k = (k + 1) & mask
	}
	return k
}

func (d *dagAdder) insert(from, to int32) {
	if k := d.slot(from, to); d.set[k] == 0 {
		d.set[k] = uint64(from)<<32 | uint64(to) + 1
		d.setN++
	}
}

// add accepts the arc unless it already exists or would close a cycle.
func (d *dagAdder) add(g *dfg.Graph, arc dfg.Arc) bool {
	x, y := arc.From, arc.To
	if x == y || d.set[d.slot(x, y)] != 0 {
		return false
	}
	if lb, ub := d.ord[y], d.ord[x]; lb < ub && !d.reorder(g, x, y, lb, ub) {
		return false
	}
	if 2*(d.setN+1) > len(d.set) {
		d.rehash(g, 2*len(d.set))
	}
	d.insert(x, y)
	k := int32(len(d.extra)) + 1
	d.extra = append(d.extra, arc)
	d.outNext = append(d.outNext, d.outHead[x])
	d.inNext = append(d.inNext, d.inHead[y])
	d.outHead[x], d.inHead[y] = k, k
	return true
}

// reorder makes room for x→y when y precedes x in the order (positions lb
// < ub). It collects y's descendants up to position ub; reaching x means
// the arc closes a cycle, and reorder reports false with the order
// untouched. Otherwise it collects x's ancestors down to position lb and
// moves them, in their relative order, before the descendants, onto the
// positions both sets held.
func (d *dagAdder) reorder(g *dfg.Graph, x, y int32, lb, ub int32) bool {
	d.fwd = d.fwd[:0]
	d.bwd = d.bwd[:0]
	stack := append(d.stack[:0], y)
	d.mark.Set(int(y))
	cyclic := false
	for len(stack) > 0 && !cyclic {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.fwd = append(d.fwd, v)
		visit := func(w int32) {
			if w == x {
				cyclic = true
			} else if d.ord[w] < ub && !d.mark.Has(int(w)) {
				d.mark.Set(int(w))
				stack = append(stack, w)
			}
		}
		for _, w := range g.Succ(int(v)) {
			visit(w)
		}
		for e := d.outHead[v]; e != 0; e = d.outNext[e-1] {
			visit(d.extra[e-1].To)
		}
	}
	for _, v := range stack {
		d.fwd = append(d.fwd, v) // marked but unexpanded
	}
	if cyclic {
		for _, v := range d.fwd {
			d.mark.Clear(int(v))
		}
		d.stack = stack[:0]
		return false
	}
	stack = append(stack[:0], x)
	d.mark.Set(int(x))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.bwd = append(d.bwd, v)
		visit := func(w int32) {
			if d.ord[w] > lb && !d.mark.Has(int(w)) {
				d.mark.Set(int(w))
				stack = append(stack, w)
			}
		}
		for _, w := range g.Pred(int(v)) {
			visit(w)
		}
		for e := d.inHead[v]; e != 0; e = d.inNext[e-1] {
			visit(d.extra[e-1].From)
		}
	}
	d.stack = stack[:0]
	// Both sets keep their relative order; together they take the sorted
	// positions they held, ancestors first.
	byOrd := func(a, b int32) int { return cmp.Compare(d.ord[a], d.ord[b]) }
	slices.SortFunc(d.bwd, byOrd)
	slices.SortFunc(d.fwd, byOrd)
	pool := d.pool[:0]
	for _, v := range d.bwd {
		pool = append(pool, d.ord[v])
	}
	for _, v := range d.fwd {
		pool = append(pool, d.ord[v])
	}
	slices.Sort(pool)
	i := 0
	for _, set := range [2][]int32{d.bwd, d.fwd} {
		for _, v := range set {
			d.ord[v] = pool[i]
			d.mark.Clear(int(v))
			i++
		}
	}
	d.pool = pool
	return true
}

// removeLast undoes the most recent successful add. The order stays a
// topological order of the smaller graph.
func (d *dagAdder) removeLast() {
	k := len(d.extra) - 1
	if k < 0 {
		return
	}
	a := d.extra[k]
	d.outHead[a.From], d.inHead[a.To] = d.outNext[k], d.inNext[k]
	d.extra, d.outNext, d.inNext = d.extra[:k], d.outNext[:k], d.inNext[:k]
	// The key went in last, so emptying its slot restores the set exactly.
	d.set[d.slot(a.From, a.To)] = 0
	d.setN--
}

// pairArcs is Graph.PairArcs into a scratch buffer.
func (sc *Scratch) pairArcs(g *dfg.Graph) []dfg.Arc {
	out := sc.pairBuf[:0]
	for i := range g.Prog.Instrs {
		if g.Prog.Instrs[i].Op != tac.Wait {
			continue
		}
		s := g.Prog.SendOf(i)
		if s < 0 {
			continue
		}
		if g.ComponentOf(s) == g.ComponentOf(i) {
			continue
		}
		waitComp := g.Component(g.ComponentOf(i)).Kind
		sendComp := g.Component(g.ComponentOf(s)).Kind
		if waitComp == dfg.Wat || sendComp == dfg.Sig {
			out = append(out, dfg.Arc{From: int32(s), To: int32(i), Kind: dfg.SrcToSend})
		}
	}
	sc.pairBuf = out
	return out
}

// markDescendants fills sc.desc with the descendants of node.
func (sc *Scratch) markDescendants(g *dfg.Graph, node int) bitset.Bits {
	desc := bitset.Make(sc.desc, g.N())
	sc.desc = desc
	stack := append(sc.queue[:0], g.Succ(node)...)
	for len(stack) > 0 {
		v := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if desc.Has(v) {
			continue
		}
		desc.Set(v)
		stack = append(stack, g.Succ(v)...)
	}
	sc.queue = stack[:0]
	return desc
}

// lazyWaitArcs delays every wait as far as its synchronization path allows —
// the head end of the contiguous-SP rule. Two families of ordering arcs are
// generated (all filtered for acyclicity by the caller's arc adder):
//
//  1. For each WaitToSnk arc w→k, every non-sync predecessor p of k that is
//     not a descendant of w gets an arc p→w: the wait issues only when its
//     sink's other operands are ready.
//  2. For each synchronization path SP(w, send), every ancestor a of a path
//     node that is outside the path (and not a descendant of w) gets an arc
//     a→w. Those ancestors lower-bound the send's issue time regardless of
//     where the wait sits, so ordering them before the wait shrinks the
//     wait→send span — the LBD cost (n/d)(i−j) — without delaying the send.
func (sc *Scratch) lazyWaitArcs(g *dfg.Graph) []dfg.Arc {
	n := g.N()
	out := sc.lazyBuf[:0]
	for _, a := range g.Arcs {
		if a.Kind != dfg.WaitToSnk {
			continue
		}
		w, k := a.From, a.To
		desc := sc.markDescendants(g, int(w))
		for _, p := range g.Pred(int(k)) {
			if p == w || g.Prog.Instrs[p].IsSync() || desc.Has(int(p)) {
				continue
			}
			out = append(out, dfg.Arc{From: p, To: w, Kind: dfg.WaitToSnk})
		}
	}
	for _, sp := range g.SyncPaths() {
		w := sp.Wait
		desc := sc.markDescendants(g, int(w))
		inPath := bitset.Make(sc.inPath, n)
		sc.inPath = inPath
		for _, v := range sp.Nodes {
			inPath.Set(int(v))
		}
		// One reverse DFS per path, shared across its nodes: a visited node's
		// ancestor closure has already been explored, so expansion stops
		// there. Ancestors are filtered for output only — the closure is
		// explored through path members and descendants alike, exactly like
		// the per-node Ancestors sets this replaces.
		visited := bitset.Make(sc.visited, n)
		sc.visited = visited
		anc := sc.anc[:0]
		stack := sc.stack[:0]
		for _, k := range sp.Nodes[1:] {
			for _, p := range g.Pred(int(k)) {
				if !visited.Has(int(p)) {
					visited.Set(int(p))
					stack = append(stack, p)
				}
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !inPath.Has(int(v)) && !desc.Has(int(v)) && !g.Prog.Instrs[v].IsSync() {
					anc = append(anc, v)
				}
				for _, p := range g.Pred(int(v)) {
					if !visited.Has(int(p)) {
						visited.Set(int(p))
						stack = append(stack, p)
					}
				}
			}
		}
		sc.stack = stack[:0]
		slices.Sort(anc) // ascending node order: arc emission is stable
		sc.anc = anc
		for _, a := range anc {
			out = append(out, dfg.Arc{From: a, To: w, Kind: dfg.WaitToSnk})
		}
	}
	sc.lazyBuf = out
	return out
}

// syncPriority returns the synchronization-aware priority of every node
// (lower issues first) from the bound critical paths, into scratch.
func (sc *Scratch) syncPriority(g *dfg.Graph, opt SyncOptions) []int {
	n := g.N()
	buf := growInts(&sc.prioBuf, 3*n)
	priority, class, rank := buf[:n], buf[n:2*n], buf[2*n:]
	// Per §3.2, nodes outside the synchronization paths are scheduled "by
	// the list scheduling": rank them by critical-path length within their
	// class. On a loop with no synchronization at all this makes the new
	// scheduler coincide with the critical-path baseline.
	cp := sc.cp
	const stride = 1 << 20
	maxCP := 0
	for _, v := range cp {
		if v > maxCP {
			maxCP = v
		}
	}
	for i := 0; i < n; i++ {
		switch g.Component(g.ComponentOf(i)).Kind {
		case dfg.Sig:
			class[i] = classSig
		case dfg.Sigwat:
			class[i] = classSigwatRest
		case dfg.Wat:
			class[i] = classWat
		default:
			class[i] = classPlain
		}
		// Longer critical path = earlier; ties broken by program order.
		rank[i] = (maxCP-cp[i])*(n+1) + i
	}
	paths := g.SyncPaths()
	// SP nodes: class classSP, ranked by (path rank, position in path).
	// Overlapping paths keep the rank of the higher-priority (earlier) path,
	// which schedules shared segments with the most critical path — the
	// paper's "scheduled simultaneously" rule for intersecting paths.
	seq := 0
	assign := func(p dfg.SyncPath) {
		for _, v := range p.Nodes {
			if class[v] == classSP {
				continue
			}
			class[v] = classSP
			rank[v] = seq
			seq++
		}
	}
	if opt.AscendingSP {
		for i := len(paths) - 1; i >= 0; i-- {
			assign(paths[i])
		}
	} else {
		for _, p := range paths {
			assign(p)
		}
	}
	for i := 0; i < n; i++ {
		priority[i] = class[i]*stride + rank[i]
	}
	return priority
}

// scratchPool serves the non-scratch package-level entry points (Sync,
// List, Best): they borrow a pooled Scratch, schedule, and clone the result
// so callers keep the familiar own-your-schedule contract.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}
