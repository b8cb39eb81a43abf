package core

import (
	"fmt"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/tac"
)

// refScheduler schedules as Scratch did before the event-driven engine,
// kept as the reference the engine, the priority sort, the replayed
// LBD candidates and the per-graph reuse are held to. Every call derives
// its critical paths, priorities and base arcs afresh, heapsorts the
// priorities, and schedules every LBD candidate from cycle 0 with an
// engine that scans every unscheduled node in every cycle. It shares with
// Scratch only what those changes left alone: the schedule buffers, the
// pair and lazy-wait arcs, the arc adder and the priority formula.
type refScheduler struct {
	sc Scratch
	ad dagAdder

	lat     []int
	deg     []int
	succOff []int
	succ    []int
	rem     []int
	readyAt []int
	live    []int
	indeg   []int
	queue   []int
	topo    []int32
	prio    []int
	occ     [dlx.NumClasses][]int
}

// List is Scratch.List on the reference engine.
func (r *refScheduler) List(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	r.sc.reset()
	return r.list(g, cfg, pri)
}

func (r *refScheduler) list(g *dfg.Graph, cfg dlx.Config, pri ListPriority) (*Schedule, error) {
	n := g.N()
	priority := growInts(&r.prio, n)
	switch pri {
	case ProgramOrder:
		for i := range priority {
			priority[i] = i
		}
	case CriticalPath:
		cp, err := r.criticalPaths(g, cfg)
		if err != nil {
			return nil, err
		}
		for i := range priority {
			priority[i] = -cp[i]
		}
	}
	return r.engine(g, cfg, nil, priority, "list")
}

// SyncWithOptions is Scratch.SyncWithOptions on the reference engine.
func (r *refScheduler) SyncWithOptions(g *dfg.Graph, cfg dlx.Config, opt SyncOptions) (*Schedule, error) {
	r.sc.reset()
	return r.sync(g, cfg, opt)
}

func (r *refScheduler) sync(g *dfg.Graph, cfg dlx.Config, opt SyncOptions) (*Schedule, error) {
	ad := &r.ad
	ad.reset(g, r.kahn(g))
	if !opt.NoPairArcs {
		for _, a := range r.sc.pairArcs(g) {
			ad.add(g, a)
		}
	}
	if !opt.NoLazyWaits {
		for _, a := range r.sc.lazyWaitArcs(g) {
			ad.add(g, a)
		}
	}
	var priority []int
	if opt.NoSPPriority {
		priority = growInts(&r.prio, g.N())
		for i := range priority {
			priority[i] = i
		}
	} else {
		cp, err := r.criticalPaths(g, cfg)
		if err != nil {
			return nil, err
		}
		r.sc.cp = cp
		priority = r.sc.syncPriority(g, opt)
	}
	best, err := r.engine(g, cfg, ad.arcs(), priority, "sync")
	if err != nil {
		return nil, err
	}
	if opt.NoPairArcs {
		return best, nil
	}
	for i := range g.Prog.Instrs {
		if g.Prog.Instrs[i].Op != tac.Wait {
			continue
		}
		s := g.Prog.SendOf(i)
		if s < 0 || best.Cycle[s] < best.Cycle[i] {
			continue
		}
		if !ad.add(g, dfg.Arc{From: int32(s), To: int32(i), Kind: dfg.SrcToSend}) {
			continue
		}
		cand, err := r.engine(g, cfg, ad.arcs(), priority, "sync")
		if err != nil || !betterThan(cand, best) {
			r.sc.releaseSched(cand)
			ad.removeLast()
			continue
		}
		r.sc.releaseSched(best)
		best = cand
	}
	return best, nil
}

// Best is Scratch.Best on the reference engine.
func (r *refScheduler) Best(g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	r.sc.reset()
	best, err := r.sync(g, cfg, SyncOptions{})
	if err != nil {
		return nil, err
	}
	for _, pri := range []ListPriority{CriticalPath, ProgramOrder} {
		s, err := r.list(g, cfg, pri)
		if err != nil {
			return nil, err
		}
		if betterThan(s, best) {
			r.sc.releaseSched(best)
			best = s
		} else {
			r.sc.releaseSched(s)
		}
	}
	return best, nil
}

// kahn returns a topological order of g by Kahn's algorithm, shorter than
// g.N() when g is cyclic.
func (r *refScheduler) kahn(g *dfg.Graph) []int32 {
	n := g.N()
	indeg := growInts(&r.indeg, n)
	topo := r.topo[:0]
	for i := 0; i < n; i++ {
		if indeg[i] = len(g.Pred(i)); indeg[i] == 0 {
			topo = append(topo, int32(i))
		}
	}
	for head := 0; head < len(topo); head++ {
		for _, w := range g.Succ(int(topo[head])) {
			if indeg[w]--; indeg[w] == 0 {
				topo = append(topo, w)
			}
		}
	}
	r.topo = topo
	return topo
}

// criticalPaths computes latency-weighted longest path to a sink per node
// (Kahn, then a reverse sweep).
func (r *refScheduler) criticalPaths(g *dfg.Graph, cfg dlx.Config) ([]int, error) {
	n := g.N()
	queue := r.kahn(g)
	if len(queue) != n {
		return nil, fmt.Errorf("dfg: dependence cycle detected")
	}
	cp := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := queue[i]
		best := 0
		for _, w := range g.Succ(int(v)) {
			if cp[w] > best {
				best = cp[w]
			}
		}
		cp[v] = cfg.Latency[g.Prog.Instrs[v].Class()] + best
	}
	return cp, nil
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

// engine is the reference cycle scheduler. priority maps node -> rank
// (lower = scheduled first among ready nodes); extra arcs are added on top
// of the dependence graph. The returned Schedule is borrowed from r.sc.
func (r *refScheduler) engine(g *dfg.Graph, cfg dlx.Config, extra []dfg.Arc, priority []int, method string) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.N()

	// Merged successor CSR (base graph + extra arcs) and predecessor counts.
	deg := growInts(&r.deg, n)
	for i := 0; i < n; i++ {
		deg[i] = len(g.Succ(i))
	}
	for _, a := range extra {
		deg[a.From]++
	}
	off := growInts(&r.succOff, n+1)
	total := 0
	for i := 0; i < n; i++ {
		off[i] = total
		total += deg[i]
	}
	off[n] = total
	succ := growInts(&r.succ, total)
	for i := 0; i < n; i++ {
		deg[i] = off[i] // reuse deg as the fill cursor
		for _, w := range g.Succ(i) {
			succ[deg[i]] = int(w)
			deg[i]++
		}
	}
	for _, a := range extra {
		succ[deg[a.From]] = int(a.To)
		deg[a.From]++
	}
	rem := growInts(&r.rem, n)
	for i := 0; i < n; i++ {
		rem[i] = len(g.Pred(i))
	}
	for _, a := range extra {
		rem[a.To]++
	}

	// Cycle check on the augmented graph (Kahn over the merged CSR).
	indeg := growInts(&r.indeg, n)
	copy(indeg, rem)
	queue := r.queue[:0]
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
	r.queue = queue[:0]
	if len(queue) != n {
		return nil, fmt.Errorf("core: %s: augmented dependence graph is cyclic", method)
	}

	lat := growInts(&r.lat, n)
	for i, in := range g.Prog.Instrs {
		lat[i] = cfg.Latency[in.Class()]
	}
	readyAt := growInts(&r.readyAt, n)
	for i := range readyAt {
		readyAt[i] = 0
	}
	// Static issue preference: (priority, index) ascending, scanned in this
	// order every cycle (the priority vector is constant across cycles).
	live := growInts(&r.live, n)
	for i := range live {
		live[i] = i
	}
	sortByKey(live, priority)
	for c := range r.occ {
		r.occ[c] = r.occ[c][:0]
	}

	sb := r.sc.acquire(n)
	cyc := sb.cycle
	done := 0
	for cycle := 0; done < n; cycle++ {
		if cycle > n*64+1024 {
			r.sc.release(sb)
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
			if dlx.NeedsUnit(cls) && !r.fuFree(cls, cycle, cycle+l, cfg.Units[cls]) {
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
				r.occupy(cls, cycle, cycle+l)
			}
			for _, s := range succ[off[v]:off[v+1]] {
				rem[s]--
				// A successor can never issue in the cycle its predecessor
				// issues, so the ready time is at least cycle+1 even at
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
	// Trim trailing empty rows.
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
	// Materialize the row views over the flat backing; empty mid-schedule
	// rows stay nil.
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

func (r *refScheduler) occupy(cls dlx.Class, from, until int) {
	occ := r.occ[cls]
	for len(occ) < until {
		occ = append(occ, 0)
	}
	for c := from; c < until; c++ {
		occ[c]++
	}
	r.occ[cls] = occ
}

func (r *refScheduler) fuFree(cls dlx.Class, from, until, limit int) bool {
	occ := r.occ[cls]
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
