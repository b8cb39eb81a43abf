package core

import (
	"cmp"
	"fmt"
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
	// Cycle-engine state (struct-of-arrays over node indices).
	lat     []int // per-node latency under the current config
	deg     []int // merged out-degree, then reused as the fill cursor
	succOff []int // merged CSR successor offsets (len n+1)
	succ    []int // merged CSR successor backing
	rem     []int // unscheduled-predecessor counts
	readyAt []int // earliest issue cycle by latency constraints
	live    []int // unscheduled nodes in static priority order
	indeg   []int // acyclicity-check scratch
	queue   []int // Kahn/BFS queue scratch
	occ     [dlx.NumClasses][]int

	// Schedule buffers: all ever created, and the currently free ones.
	all  []*schedBuf
	free []*schedBuf

	// The arc adder syncImpl schedules with, and a test's substitute for it
	// (nil: ad).
	ad    dagAdder
	adder arcAdder

	// Lazy-wait / priority state.
	desc    bitset.Bits
	inPath  bitset.Bits
	visited bitset.Bits
	stack   []int
	anc     []int
	lazyBuf []dfg.Arc
	pairBuf []dfg.Arc
	prio    []int
	class   []int
	rank    []int
	cp      []int
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

// sortByKey sorts a by (key[a[i]], a[i]) ascending, in place, with heapsort:
// no allocation, and the comparator is a strict weak order with unique keys
// (ties broken by index), so the result is deterministic.
func sortByKey(a []int, key []int) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownKey(a, key, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDownKey(a, key, 0, i)
	}
}

func keyLess(key []int, x, y int) bool {
	if key[x] != key[y] {
		return key[x] < key[y]
	}
	return x < y
}

func siftDownKey(a, key []int, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && keyLess(key, a[c], a[c+1]) {
			c++
		}
		if !keyLess(key, a[root], a[c]) {
			return
		}
		a[root], a[c] = a[c], a[root]
		root = c
	}
}

// sortInts sorts a ascending in place (heapsort; no allocation).
func sortInts(a []int) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownInts(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDownInts(a, 0, i)
	}
}

func siftDownInts(a []int, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && a[c] < a[c+1] {
			c++
		}
		if a[root] >= a[c] {
			return
		}
		a[root], a[c] = a[c], a[root]
		root = c
	}
}

// engine is the shared resource-constrained cycle scheduler over scratch
// state. priority maps node -> rank (lower = scheduled first among ready
// nodes); extra arcs are added on top of the dependence graph (the caller
// guarantees they are duplicate-free and acyclicity-checked). The returned
// Schedule is borrowed from the Scratch.
func (sc *Scratch) engine(g *dfg.Graph, cfg dlx.Config, extra []dfg.Arc, priority []int, method string) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.N()

	// Merged successor CSR (base graph + extra arcs) and predecessor counts.
	deg := growInts(&sc.deg, n)
	for i := 0; i < n; i++ {
		deg[i] = len(g.Succ[i])
	}
	for _, a := range extra {
		deg[a.From]++
	}
	off := growInts(&sc.succOff, n+1)
	total := 0
	for i := 0; i < n; i++ {
		off[i] = total
		total += deg[i]
	}
	off[n] = total
	succ := growInts(&sc.succ, total)
	for i := 0; i < n; i++ {
		copy(succ[off[i]:], g.Succ[i])
		deg[i] = off[i] + len(g.Succ[i]) // reuse deg as the extra-fill cursor
	}
	for _, a := range extra {
		succ[deg[a.From]] = a.To
		deg[a.From]++
	}
	rem := growInts(&sc.rem, n)
	for i := 0; i < n; i++ {
		rem[i] = len(g.Pred[i])
	}
	for _, a := range extra {
		rem[a.To]++
	}

	// Cycle check on the augmented graph (Kahn over the merged CSR).
	indeg := growInts(&sc.indeg, n)
	copy(indeg, rem)
	queue := sc.queue[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range succ[off[v]:off[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue[:0]
	if len(queue) != n {
		return nil, fmt.Errorf("core: %s: augmented dependence graph is cyclic", method)
	}

	lat := growInts(&sc.lat, n)
	for i, in := range g.Prog.Instrs {
		lat[i] = cfg.Latency[in.Class()]
	}
	readyAt := growInts(&sc.readyAt, n)
	for i := range readyAt {
		readyAt[i] = 0
	}
	// Static issue preference: (priority, index) ascending. Candidates are
	// scanned in this order every cycle, which is exactly the per-cycle
	// candidate sort of the reference engine with the sort hoisted out (the
	// priority vector is constant across cycles).
	live := growInts(&sc.live, n)
	for i := range live {
		live[i] = i
	}
	sortByKey(live, priority)
	for c := range sc.occ {
		sc.occ[c] = sc.occ[c][:0]
	}

	sb := sc.acquire(n)
	cyc := sb.cycle
	done := 0
	for cycle := 0; done < n; cycle++ {
		if cycle > n*64+1024 {
			sc.release(sb)
			return nil, fmt.Errorf("core: %s: scheduler livelock at cycle %d (%d/%d scheduled)", method, cycle, done, n)
		}
		slots := cfg.Issue
		kept := 0
		for scan := 0; scan < len(live); scan++ {
			v := live[scan]
			if slots == 0 || rem[v] != 0 || readyAt[v] > cycle {
				live[kept] = v
				kept++
				continue
			}
			cls := g.Prog.Instrs[v].Class()
			l := lat[v]
			if dlx.NeedsUnit(cls) && !sc.fuFree(cls, cycle, cycle+l, cfg.Units[cls]) {
				live[kept] = v
				kept++
				continue
			}
			// Issue v.
			cyc[v] = cycle
			sb.rowBk = append(sb.rowBk, v)
			slots--
			done++
			if dlx.NeedsUnit(cls) {
				sc.occupy(cls, cycle, cycle+l)
			}
			for _, s := range succ[off[v]:off[v+1]] {
				rem[s]--
				// A successor can never issue in the cycle its predecessor
				// issues (the reference engine snapshots candidates before
				// issuing), so the ready time is at least cycle+1 even at
				// latency 0.
				ra := cycle + l
				if ra <= cycle {
					ra = cycle + 1
				}
				if ra > readyAt[s] {
					readyAt[s] = ra
				}
			}
		}
		live = live[:kept]
		sb.rowEnd = append(sb.rowEnd, len(sb.rowBk))
	}
	// Trim trailing empty rows (can appear when the last issues left gaps).
	for len(sb.rowEnd) > 0 {
		prev := 0
		if len(sb.rowEnd) > 1 {
			prev = sb.rowEnd[len(sb.rowEnd)-2]
		}
		if sb.rowEnd[len(sb.rowEnd)-1] != prev {
			break
		}
		sb.rowEnd = sb.rowEnd[:len(sb.rowEnd)-1]
	}
	// Materialize the row views over the flat backing. Empty mid-schedule
	// rows stay nil, matching the reference engine's representation.
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

// List builds the baseline list schedule into scratch state. The returned
// schedule is borrowed until the next call on this Scratch.
func (sc *Scratch) List(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	sc.reset()
	return sc.listImpl(g, cfg, pri)
}

func (sc *Scratch) listImpl(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	n := g.N()
	priority := growInts(&sc.prio, n)
	switch pri {
	case ProgramOrder:
		for i := range priority {
			priority[i] = i
		}
	case CriticalPath:
		cp, err := sc.criticalPaths(g, cfg)
		if err != nil {
			return nil, err
		}
		for i := range priority {
			// Longer critical path = higher priority = lower rank value.
			priority[i] = -cp[i]
		}
	}
	return sc.engine(g, cfg, nil, priority, "list")
}

// criticalPaths computes latency-weighted longest path to a sink per node
// over scratch buffers (same values as Graph.CriticalPathLengths: the
// distances are topological-order independent).
func (sc *Scratch) criticalPaths(g *dfg.Graph, cfg dlx.Config) ([]int, error) {
	n := g.N()
	indeg := growInts(&sc.indeg, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Pred[i])
	}
	queue := sc.queue[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue[:0]
	if len(queue) != n {
		return nil, fmt.Errorf("dfg: dependence cycle detected")
	}
	cp := growInts(&sc.cp, n)
	for i := range cp {
		cp[i] = 0
	}
	for i := n - 1; i >= 0; i-- {
		v := queue[i]
		best := 0
		for _, w := range g.Succ[v] {
			if cp[w] > best {
				best = cp[w]
			}
		}
		cp[v] = cfg.Latency[g.Prog.Instrs[v].Class()] + best
	}
	return cp, nil
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
	ad := sc.adder
	if ad == nil {
		ad = &sc.ad
	}
	ad.reset(g)
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
	priority, err := sc.syncPriority(g, cfg, opt)
	if err != nil {
		return nil, err
	}
	best, err := sc.engine(g, cfg, ad.arcs(), priority, "sync")
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
	for i, in := range g.Prog.Instrs {
		if in.Op != tac.Wait {
			continue
		}
		s := g.Prog.SendOf(i)
		if s < 0 {
			continue
		}
		if best.Cycle[s] < best.Cycle[i] {
			continue // already LFD
		}
		if !ad.add(g, dfg.Arc{From: s, To: i, Kind: dfg.SrcToSend}) {
			continue
		}
		cand, err := sc.engine(g, cfg, ad.arcs(), priority, "sync")
		if err != nil || !betterThan(cand, best) {
			sc.releaseSched(cand)
			ad.removeLast()
			continue
		}
		sc.releaseSched(best)
		best = cand
	}
	return best, nil
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
	reset(g *dfg.Graph)
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
	stack []int
	fwd   []int // the repair's descendants of the arc's head
	bwd   []int // the repair's ancestors of the arc's tail
	pool  []int32
}

func (d *dagAdder) arcs() []dfg.Arc { return d.extra }

// reset clears the adder for g, orders g's nodes topologically (Kahn) and
// fills the arc set with g's arcs.
func (d *dagAdder) reset(g *dfg.Graph) {
	n := g.N()
	d.extra, d.outNext, d.inNext = d.extra[:0], d.outNext[:0], d.inNext[:0]
	d.outHead, d.inHead = growInt32s(&d.outHead, n), growInt32s(&d.inHead, n)
	clear(d.outHead)
	clear(d.inHead)
	d.ord = growInt32s(&d.ord, n)
	// Kahn, with ord counting the unplaced predecessors until a node is
	// placed. A cyclic graph (which scheduling rejects anyway) leaves its
	// cycles' nodes unplaced; they take the last positions in index order.
	queue := d.stack[:0]
	for v := 0; v < n; v++ {
		d.ord[v] = int32(len(g.Pred[v]))
		if d.ord[v] == 0 {
			queue = append(queue, v)
		}
	}
	placed := bitset.Make(d.mark, n)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		placed.Set(v)
		for _, w := range g.Succ[v] {
			if d.ord[w]--; d.ord[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !placed.Has(v) {
			queue = append(queue, v)
		}
	}
	for i, v := range queue {
		d.ord[v] = int32(i)
	}
	d.stack = queue[:0]
	placed.Reset()
	d.mark = placed

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
	for v, succ := range g.Succ {
		for _, w := range succ {
			d.insert(v, w)
		}
	}
	for _, a := range d.extra {
		d.insert(a.From, a.To)
	}
}

// slot returns the slot holding from→to, or the empty slot where it
// belongs.
func (d *dagAdder) slot(from, to int) int {
	key := uint64(from)<<32 | uint64(to) + 1
	mask := len(d.set) - 1
	k := int((key*0x9E3779B97F4A7C15)>>32) & mask
	for d.set[k] != 0 && d.set[k] != key {
		k = (k + 1) & mask
	}
	return k
}

func (d *dagAdder) insert(from, to int) {
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
func (d *dagAdder) reorder(g *dfg.Graph, x, y int, lb, ub int32) bool {
	d.fwd = d.fwd[:0]
	d.bwd = d.bwd[:0]
	stack := append(d.stack[:0], y)
	d.mark.Set(y)
	cyclic := false
	for len(stack) > 0 && !cyclic {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.fwd = append(d.fwd, v)
		visit := func(w int) {
			if w == x {
				cyclic = true
			} else if d.ord[w] < ub && !d.mark.Has(w) {
				d.mark.Set(w)
				stack = append(stack, w)
			}
		}
		for _, w := range g.Succ[v] {
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
			d.mark.Clear(v)
		}
		d.stack = stack[:0]
		return false
	}
	stack = append(stack[:0], x)
	d.mark.Set(x)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.bwd = append(d.bwd, v)
		visit := func(w int) {
			if d.ord[w] > lb && !d.mark.Has(w) {
				d.mark.Set(w)
				stack = append(stack, w)
			}
		}
		for _, w := range g.Pred[v] {
			visit(w)
		}
		for e := d.inHead[v]; e != 0; e = d.inNext[e-1] {
			visit(d.extra[e-1].From)
		}
	}
	d.stack = stack[:0]
	// Both sets keep their relative order; together they take the sorted
	// positions they held, ancestors first.
	byOrd := func(a, b int) int { return cmp.Compare(d.ord[a], d.ord[b]) }
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
	for _, set := range [2][]int{d.bwd, d.fwd} {
		for _, v := range set {
			d.ord[v] = pool[i]
			d.mark.Clear(v)
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
	for i, in := range g.Prog.Instrs {
		if in.Op != tac.Wait {
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
			out = append(out, dfg.Arc{From: s, To: i, Kind: dfg.SrcToSend})
		}
	}
	sc.pairBuf = out
	return out
}

// markDescendants fills sc.desc with the descendants of node.
func (sc *Scratch) markDescendants(g *dfg.Graph, node int) bitset.Bits {
	desc := bitset.Make(sc.desc, g.N())
	sc.desc = desc
	stack := append(sc.queue[:0], g.Succ[node]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if desc.Has(v) {
			continue
		}
		desc.Set(v)
		stack = append(stack, g.Succ[v]...)
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
		desc := sc.markDescendants(g, w)
		for _, p := range g.Pred[k] {
			if p == w || g.Prog.Instrs[p].IsSync() || desc.Has(p) {
				continue
			}
			out = append(out, dfg.Arc{From: p, To: w, Kind: dfg.WaitToSnk})
		}
	}
	for _, sp := range g.SyncPaths() {
		w := sp.Wait
		desc := sc.markDescendants(g, w)
		inPath := bitset.Make(sc.inPath, n)
		sc.inPath = inPath
		for _, v := range sp.Nodes {
			inPath.Set(v)
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
			for _, p := range g.Pred[k] {
				if !visited.Has(p) {
					visited.Set(p)
					stack = append(stack, p)
				}
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !inPath.Has(v) && !desc.Has(v) && !g.Prog.Instrs[v].IsSync() {
					anc = append(anc, v)
				}
				for _, p := range g.Pred[v] {
					if !visited.Has(p) {
						visited.Set(p)
						stack = append(stack, p)
					}
				}
			}
		}
		sc.stack = stack[:0]
		sortInts(anc) // ascending node order: arc emission is stable
		sc.anc = anc
		for _, a := range anc {
			out = append(out, dfg.Arc{From: a, To: w, Kind: dfg.WaitToSnk})
		}
	}
	sc.lazyBuf = out
	return out
}

func (sc *Scratch) syncPriority(g *dfg.Graph, cfg dlx.Config, opt SyncOptions) ([]int, error) {
	n := g.N()
	priority := growInts(&sc.prio, n)
	if opt.NoSPPriority {
		for i := range priority {
			priority[i] = i
		}
		return priority, nil
	}
	// Per §3.2, nodes outside the synchronization paths are scheduled "by
	// the list scheduling": rank them by critical-path length within their
	// class. On a loop with no synchronization at all this makes the new
	// scheduler coincide with the critical-path baseline.
	cp, err := sc.criticalPaths(g, cfg)
	if err != nil {
		return nil, err
	}
	const stride = 1 << 20
	class := growInts(&sc.class, n)
	rank := growInts(&sc.rank, n)
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
	return priority, nil
}

// scratchPool serves the non-scratch package-level entry points (Sync,
// List, Best): they borrow a pooled Scratch, schedule, and clone the result
// so callers keep the familiar own-your-schedule contract.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}
