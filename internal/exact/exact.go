// Package exact is the exact scheduling backend: a branch-and-bound /
// constraint-propagation search over the same synchronization-augmented
// data-flow graph, resource model (issue width, function-unit mix,
// latencies) and synchronization conditions 1–2 the heuristic scheduler
// (internal/core) uses, minimizing the paper's objective
//
//	T = (n/d)·(i−j) + l
//
// directly — in its dynamic form ⌊(n−1)/d⌋·(i−j+1) + l, maximized over the
// remaining lexically-backward synchronization pairs, exactly what
// internal/model.Predict evaluates — instead of greedily shrinking spans
// the way the Sig/Wat/Sigwat heuristic does.
//
// The search enumerates cycle-by-cycle issue decisions (canonicalized to
// ascending node order within a row, which every schedule can be rewritten
// to without changing any cycle) and prunes with
//
//   - an admissible lower bound combining the latency-weighted critical
//     path of the unscheduled nodes, an issue-bandwidth bound, per-class
//     function-unit occupancy bounds, and per-pair span bounds for
//     synchronization pairs whose wait is already placed;
//   - dominance pruning at cycle boundaries: two partial schedules with the
//     same scheduled set, the same pending-latency and unit-occupancy tails
//     and component-wise no-worse pair placements explore isomorphic
//     futures, so the dominated one is cut;
//   - an incumbent seeded from the heuristic backends (sync + both list
//     baselines), which both prunes from the first expansion and gives the
//     search its anytime behavior: on budget exhaustion the best-so-far
//     schedule is returned with Optimal=false, a diagnostic note and a
//     proven lower bound on the true optimum.
//
// The returned schedule always passes core.Schedule.Validate; callers are
// expected to additionally run it through the independent verifier
// (internal/check) before publication, like every other backend's output.
package exact

import (
	"fmt"
	"math"
	"sort"
	"time"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/tac"
)

// DefaultMaxNodes is the search-node budget used when Options.MaxNodes is
// zero. Loop bodies are small (tens of instructions), so most corpus loops
// prove optimality well below it.
const DefaultMaxNodes = 200_000

// Options configures one exact scheduling run. The zero value evaluates the
// objective at the paper's trip count (n=100) under DefaultMaxNodes.
type Options struct {
	// N is the trip count the objective T is evaluated at (0 = 100, the
	// paper's). It also sets the per-pair chain link count ⌊(N−1)/d⌋.
	N int
	// MaxNodes bounds the number of search nodes expanded (0 =
	// DefaultMaxNodes, negative = unlimited). The search is deterministic
	// for a fixed budget.
	MaxNodes int64
	// MaxDuration additionally bounds the search wall clock (0 = none).
	// A run cut off by wall clock is still correct and still reports a
	// proven lower bound, but is no longer deterministic across machines —
	// prefer MaxNodes wherever results are compared or cached.
	MaxDuration time.Duration
}

func (o Options) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o Options) maxNodes() int64 {
	if o.MaxNodes == 0 {
		return DefaultMaxNodes
	}
	if o.MaxNodes < 0 {
		return math.MaxInt64
	}
	return o.MaxNodes
}

// Result is the outcome of one exact scheduling run.
type Result struct {
	// Schedule is the best schedule found (Method "exact"). It is never
	// nil on a nil error and always passes core.Schedule.Validate.
	Schedule *core.Schedule
	// T is the objective value of Schedule at Options.N.
	T int
	// LowerBound is a proven lower bound on the optimal objective value:
	// every feasible schedule of this graph on this machine has T at least
	// LowerBound. When Optimal, LowerBound == T.
	LowerBound int
	// Optimal reports that the search space was exhausted within budget:
	// Schedule is proven optimal for the objective.
	Optimal bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
	// Note is empty on optimal results; otherwise it carries the
	// budget-exhaustion diagnostic ("budget exhausted after N nodes: ...").
	Note string
}

// Backend adapts the exact solver to the core.Scheduler seam.
type Backend struct {
	// Opt configures every run of this backend instance.
	Opt Options
}

// Name implements core.Scheduler.
func (Backend) Name() string { return "exact" }

// Schedule implements core.Scheduler.
func (b Backend) Schedule(g *dfg.Graph, cfg dlx.Config) (*core.Outcome, error) {
	r, err := Schedule(g, cfg, b.Opt)
	if err != nil {
		return nil, err
	}
	return &core.Outcome{
		Schedule:   r.Schedule,
		T:          r.T,
		Optimal:    r.Optimal,
		LowerBound: r.LowerBound,
		Nodes:      r.Nodes,
		Note:       r.Note,
	}, nil
}

// pair is one synchronization pair of the loop, with its precomputed chain
// link count ⌊(N−1)/d⌋ and minimum achievable span.
type pair struct {
	wait, send int
	dist       int
	links      int
	// minsep is the longest latency-weighted dependency path from the wait
	// to the send: no schedule can place them closer, so the pair's span is
	// at least minsep in every completion. −1 when the send is not reachable
	// from the wait — the pair is convertible and can be placed LFD, so no
	// penalty is forced.
	minsep int
}

// Schedule runs the branch-and-bound search. It never returns a nil
// schedule alongside a nil error: even a budget of one node yields the
// heuristic-seeded incumbent (Optimal=false).
func Schedule(g *dfg.Graph, cfg dlx.Config, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := newSearcher(g, cfg, opt)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// searcher holds the immutable problem description and the mutable
// depth-first search state. All mutations are undone on backtrack, so one
// searcher allocates its arrays once.
type searcher struct {
	g   *dfg.Graph
	cfg dlx.Config
	opt Options

	n       int
	nTrip   int
	lat     []int
	cls     []dlx.Class
	unit    []bool
	order   []int // topological order of the graph
	pathlat []int // latency-weighted longest path from v to any sink, incl. own latency
	prio    []int // nodes in static branch order (critical path first)
	pairs   []pair
	maxLat  int
	horizon int
	est     []int // scratch: per-bound-call earliest starts of unscheduled nodes

	// Mutable search state.
	cycle     int
	cycleOf   []int
	scheduled int
	remPreds  []int
	readyAt   []int
	occ       [][]int // per class, absolute cycle -> busy units
	maxFinish int
	mask      []uint64
	rowSlack  []int // issue slots left when row c was closed, valid for c < cycle
	isWait    []bool

	// Per-depth undo scratch (depth = number of scheduled nodes).
	undoReady  [][]int
	undoFinish []int

	// Incumbent.
	bestT      int
	bestCycles []int
	bestSeed   *core.Schedule // heuristic seed, returned if the search never improves on it

	// Budget and bound accounting.
	nodes    int64
	maxNodes int64
	deadline time.Time
	aborted  bool
	frontier int // min lower bound over subtrees abandoned for budget
	rootLB   int

	memo   map[string][]costVec
	keyBuf []byte
	vecBuf costVec
}

// costVec is the dominance cost vector of a cycle-boundary state: the
// current cycle, then one component per synchronization pair with at least
// one endpoint placed (fixed contribution, wait age, or send lead — see
// boundaryVec). Component-wise ≤ means the stored state dominates.
type costVec []int

func newSearcher(g *dfg.Graph, cfg dlx.Config, opt Options) (*searcher, error) {
	n := g.N()
	s := &searcher{
		g: g, cfg: cfg, opt: opt,
		n: n, nTrip: opt.n(),
		lat:      make([]int, n),
		cls:      make([]dlx.Class, n),
		unit:     make([]bool, n),
		est:      make([]int, n),
		cycleOf:  make([]int, n),
		remPreds: make([]int, n),
		readyAt:  make([]int, n),
		occ:      make([][]int, dlx.NumClasses),
		mask:     make([]uint64, (n+63)/64),
		bestT:    math.MaxInt,
		maxNodes: opt.maxNodes(),
		frontier: math.MaxInt,
		memo:     map[string][]costVec{},
		horizon:  n*64 + 1024,
	}
	if opt.MaxDuration > 0 {
		s.deadline = time.Now().Add(opt.MaxDuration)
	}
	s.isWait = make([]bool, n)
	for v := 0; v < n; v++ {
		in := &g.Prog.Instrs[v]
		s.cls[v] = in.Class()
		s.lat[v] = cfg.Latency[s.cls[v]]
		s.unit[v] = dlx.NeedsUnit(s.cls[v])
		s.isWait[v] = in.Op == tac.Wait
		if s.lat[v] > s.maxLat {
			s.maxLat = s.lat[v]
		}
		s.cycleOf[v] = -1
		s.remPreds[v] = len(g.Pred(v))
	}
	// Latency-weighted longest path to a sink, over the base graph (the
	// exact constraints are the graph arcs themselves — the sync conditions
	// are already encoded as src→send and wait→snk arcs).
	order, err := g.Topological()
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	s.order = order
	s.pathlat = make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range s.g.Succ(v) {
			if s.pathlat[w] > best {
				best = s.pathlat[w]
			}
		}
		s.pathlat[v] = s.lat[v] + best
	}
	// Static branch order: non-waits critical-path-first, waits last, program
	// order on ties. Any fixed total order keeps the per-row subset
	// enumeration canonical (each row set is built exactly once, in order);
	// descending path length makes the depth-first descent behave like list
	// scheduling, so tight incumbents appear early and the bound starts
	// pruning immediately. Waits go last because the objective rewards
	// placing them late (smaller spans) — the first descent then leans the
	// right way.
	s.prio = make([]int, n)
	for v := range s.prio {
		s.prio[v] = v
	}
	sort.SliceStable(s.prio, func(a, b int) bool {
		va, vb := s.prio[a], s.prio[b]
		if s.isWait[va] != s.isWait[vb] {
			return !s.isWait[va]
		}
		return s.pathlat[va] > s.pathlat[vb]
	})
	dist := make([]int, n) // scratch for per-pair longest-path DP
	for v := range g.Prog.Instrs {
		in := &g.Prog.Instrs[v]
		if in.Op != tac.Wait || in.SigDist <= 0 {
			continue
		}
		send := g.Prog.SendOf(v)
		if send < 0 {
			continue
		}
		// Longest latency-weighted path wait → send: any dependency path
		// forces the send that many cycles after the wait, so the span of
		// this pair can never drop below it.
		const unreached = math.MinInt / 2
		for i := range dist {
			dist[i] = unreached
		}
		dist[v] = 0
		for _, u := range order {
			if dist[u] == unreached {
				continue
			}
			for _, w := range s.g.Succ(u) {
				if d := dist[u] + s.lat[u]; d > dist[w] {
					dist[w] = d
				}
			}
		}
		minsep := dist[send]
		if minsep == unreached {
			minsep = -1 // convertible: can go LFD, no forced penalty
		}
		s.pairs = append(s.pairs, pair{
			wait: v, send: send, dist: int(in.SigDist),
			links:  (s.nTrip - 1) / int(in.SigDist),
			minsep: minsep,
		})
	}
	s.undoReady = make([][]int, n+1)
	s.undoFinish = make([]int, n+1)
	for v := 0; v < n; v++ {
		s.undoReady[v] = make([]int, 0, 8)
	}
	return s, nil
}

// run seeds the incumbent from the heuristics, explores, and assembles the
// result.
func (s *searcher) run() (*Result, error) {
	if err := s.seed(); err != nil {
		return nil, err
	}
	s.rootLB = s.bound(s.cfg.Issue)
	if s.rootLB < s.bestT {
		s.nodes = 1
		s.expand(-1, s.cfg.Issue)
	}
	res := &Result{Nodes: s.nodes}
	if s.bestCycles != nil {
		res.Schedule = s.assemble(s.bestCycles)
	} else {
		// The heuristic seed was never beaten; relabel a copy as this
		// backend's output.
		res.Schedule = s.assemble(s.bestSeed.Cycle)
	}
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("exact: produced an invalid schedule: %w", err)
	}
	res.T = s.bestT
	if s.aborted {
		res.Optimal = false
		res.LowerBound = min(s.bestT, s.frontier)
		if s.rootLB > res.LowerBound {
			res.LowerBound = s.rootLB
		}
		res.Note = fmt.Sprintf("budget exhausted after %d nodes: best T=%d, proven lower bound %d",
			s.nodes, res.T, res.LowerBound)
	} else {
		res.Optimal = true
		res.LowerBound = res.T
	}
	return res, nil
}

// seed builds the heuristic schedules and installs the best of them (under
// the exact objective) as the incumbent. The search then only has to find
// strictly better schedules, and an exhausted budget still returns a
// verified, never-worse-than-heuristic answer.
func (s *searcher) seed() error {
	var best *core.Schedule
	for _, mk := range []func() (*core.Schedule, error){
		func() (*core.Schedule, error) { return core.Sync(s.g, s.cfg) },
		func() (*core.Schedule, error) { return core.List(s.g, s.cfg, core.CriticalPath) },
		func() (*core.Schedule, error) { return core.List(s.g, s.cfg, core.ProgramOrder) },
	} {
		sched, err := mk()
		if err != nil {
			return fmt.Errorf("exact: seeding incumbent: %w", err)
		}
		if t := model.Predict(sched, s.nTrip); t < s.bestT {
			s.bestT = t
			best = sched
		}
	}
	s.bestSeed = best
	return nil
}

// assemble builds a core.Schedule from a per-node cycle assignment, rows in
// ascending node order (the search's canonical order).
func (s *searcher) assemble(cycles []int) *core.Schedule {
	sched := &core.Schedule{
		Prog: s.g.Prog, Graph: s.g, Cfg: s.cfg,
		Cycle:  append([]int(nil), cycles...),
		Method: "exact",
	}
	length := 0
	for _, c := range cycles {
		if c+1 > length {
			length = c + 1
		}
	}
	sched.Rows = make([][]int, length)
	for v, c := range cycles {
		sched.Rows[c] = append(sched.Rows[c], v)
	}
	return sched
}

// exhausted reports whether the node or wall-clock budget is spent. The
// deadline is polled sparsely so the hot path stays syscall-free.
func (s *searcher) exhausted() bool {
	if s.nodes >= s.maxNodes {
		return true
	}
	if !s.deadline.IsZero() && s.nodes&1023 == 0 && time.Now().After(s.deadline) {
		return true
	}
	return false
}

// expand enumerates the children of the current state: issue one more node
// into the current row (ascending branch order, so each row set is built
// exactly once), or close the row and advance one cycle. The caller has
// already bounded and counted this state. lastPos is the branch-order
// position of the last node issued into the current row (−1 for none).
func (s *searcher) expand(lastPos, slotsLeft int) {
	if s.scheduled == s.n {
		s.complete()
		return
	}
	if slotsLeft > 0 {
		for k := lastPos + 1; k < s.n; k++ {
			v := s.prio[k]
			if s.cycleOf[v] >= 0 || s.remPreds[v] > 0 || s.readyAt[v] > s.cycle {
				continue
			}
			if s.unit[v] && !s.unitFree(s.cls[v], s.cycle, s.cycle+s.lat[v]) {
				continue
			}
			if s.leftShiftable(v) {
				continue
			}
			s.place(v)
			s.child(slotsLeft-1, func() { s.expand(k, slotsLeft-1) })
			s.unplace(v)
		}
	}
	if s.cycle < s.horizon {
		for len(s.rowSlack) <= s.cycle {
			s.rowSlack = append(s.rowSlack, 0)
		}
		s.rowSlack[s.cycle] = slotsLeft
		s.cycle++
		s.child(s.cfg.Issue, func() {
			if !s.dominated() {
				s.expand(-1, s.cfg.Issue)
			}
		})
		s.cycle--
	}
}

// leftShiftable reports that placing non-wait node v at the current cycle
// cc is dominated: some already-closed row c had a free issue slot and v
// was ready at c, so left-shifting v from cc to c turns any completion of
// this branch into a feasible schedule that is nowhere worse (earlier
// finishes can only shrink l and send spans; wait cycles are untouched).
// The shift only increases unit occupancy on [c, min(c+lat, cc)) — cycles
// strictly before cc, whose occupancy is final because every future
// placement occupies cycles ≥ cc — so checking the current occupancy there
// is conclusive regardless of how the branch would have continued. Waits
// are exempt: delaying a wait is exactly how spans shrink. Iterating the
// left-shift terminates (the total of all cycle numbers strictly
// decreases), so an undominated optimum always survives the prune.
func (s *searcher) leftShiftable(v int) bool {
	if s.isWait[v] {
		return false
	}
	for c := s.readyAt[v]; c < s.cycle; c++ {
		if s.rowSlack[c] <= 0 {
			continue
		}
		end := c + s.lat[v]
		if end > s.cycle {
			end = s.cycle
		}
		if !s.unit[v] || s.unitFree(s.cls[v], c, end) {
			return true
		}
	}
	return false
}

// child applies the bound / budget gate to one candidate child state and
// expands it. Pruning against the current incumbent is sound for final
// optimality because incumbents only improve: everything cut had no
// completion better than the final answer.
func (s *searcher) child(slotsLeft int, f func()) {
	lb := s.bound(slotsLeft)
	if lb >= s.bestT {
		return
	}
	if s.exhausted() {
		s.aborted = true
		if lb < s.frontier {
			s.frontier = lb
		}
		return
	}
	s.nodes++
	f()
}

// complete records a finished schedule, keeping it when strictly better.
func (s *searcher) complete() {
	t := s.objective()
	if t < s.bestT {
		s.bestT = t
		if s.bestCycles == nil {
			s.bestCycles = make([]int, s.n)
		}
		copy(s.bestCycles, s.cycleOf)
	}
}

// objective evaluates T on the complete current assignment: completion
// length plus the worst LBD chain penalty — the same number
// model.Predict reports for the assembled schedule.
func (s *searcher) objective() int {
	t := s.maxFinish
	for i := range s.pairs {
		p := &s.pairs[i]
		span := s.cycleOf[p.send] - s.cycleOf[p.wait]
		if span < 0 {
			continue // LFD
		}
		if v := p.links*(span+1) + s.maxFinish; v > t {
			t = v
		}
	}
	return t
}

// place issues node v at the current cycle.
func (s *searcher) place(v int) {
	s.cycleOf[v] = s.cycle
	s.mask[v>>6] |= 1 << (uint(v) & 63)
	s.undoFinish[s.scheduled] = s.maxFinish
	undo := s.undoReady[s.scheduled][:0]
	fin := s.cycle + s.lat[v]
	if fin > s.maxFinish {
		s.maxFinish = fin
	}
	if s.unit[v] {
		occ := s.occ[s.cls[v]]
		for len(occ) < fin {
			occ = append(occ, 0)
		}
		for c := s.cycle; c < fin; c++ {
			occ[c]++
		}
		s.occ[s.cls[v]] = occ
	}
	for _, w := range s.g.Succ(v) {
		s.remPreds[w]--
		undo = append(undo, s.readyAt[w])
		if fin > s.readyAt[w] {
			s.readyAt[w] = fin
		}
	}
	s.undoReady[s.scheduled] = undo
	s.scheduled++
}

// unplace undoes the matching place.
func (s *searcher) unplace(v int) {
	s.scheduled--
	s.maxFinish = s.undoFinish[s.scheduled]
	undo := s.undoReady[s.scheduled]
	for i, w := range s.g.Succ(v) {
		s.remPreds[w]++
		s.readyAt[w] = undo[i]
	}
	if s.unit[v] {
		occ := s.occ[s.cls[v]]
		for c := s.cycle; c < s.cycle+s.lat[v]; c++ {
			occ[c]--
		}
	}
	s.mask[v>>6] &^= 1 << (uint(v) & 63)
	s.cycleOf[v] = -1
}

// unitFree reports whether a unit of class cls is available over [from, to).
func (s *searcher) unitFree(cls dlx.Class, from, to int) bool {
	occ := s.occ[cls]
	limit := s.cfg.Units[cls]
	for c := from; c < to && c < len(occ); c++ {
		if occ[c] >= limit {
			return false
		}
	}
	return true
}

// bound computes an admissible lower bound on the objective of every
// completion of the current state: a lower bound on the final schedule
// length l (critical path, issue bandwidth, unit occupancy) plus a lower
// bound on the worst LBD chain penalty (pairs whose wait is placed cannot
// shrink their span below the send's earliest start).
func (s *searcher) bound(slotsLeft int) int {
	l := s.maxFinish
	remaining := s.n - s.scheduled
	if remaining > 0 {
		if s.cycle+1 > l {
			l = s.cycle + 1 // something still has to issue at >= cycle
		}
		// Critical path over unscheduled nodes, with earliest starts
		// propagated forward through the unscheduled subgraph (constraint
		// propagation: a node cannot start before any chain of unscheduled
		// ancestors completes, all of which start at >= cycle).
		for _, v := range s.order {
			if s.cycleOf[v] >= 0 {
				continue
			}
			est := s.cycle
			if s.readyAt[v] > est {
				est = s.readyAt[v]
			}
			for _, u := range s.g.Pred(v) {
				if s.cycleOf[u] < 0 && s.est[u]+s.lat[u] > est {
					est = s.est[u] + s.lat[u]
				}
			}
			s.est[v] = est
			if est+s.pathlat[v] > l {
				l = est + s.pathlat[v]
			}
		}
		// Issue bandwidth: slotsLeft issues fit this cycle, Issue per cycle
		// after; the final issue still needs >= 1 cycle of latency.
		over := remaining - slotsLeft
		if over > 0 {
			lastIssue := s.cycle + (over+s.cfg.Issue-1)/s.cfg.Issue
			if lastIssue+1 > l {
				l = lastIssue + 1
			}
		}
		// Unit occupancy: pending tail busy-cycles plus the unscheduled
		// work of each class, spread over its units, all at >= cycle.
		for cls := dlx.Class(0); cls < dlx.NumClasses; cls++ {
			units := s.cfg.Units[cls]
			if units <= 0 || cls == dlx.Sync {
				continue
			}
			work := 0
			for v := 0; v < s.n; v++ {
				if s.cycleOf[v] < 0 && s.cls[v] == cls && s.unit[v] {
					work += s.lat[v]
				}
			}
			if work == 0 {
				continue
			}
			occ := s.occ[cls]
			for c := s.cycle; c < len(occ); c++ {
				work += occ[c]
			}
			if fin := s.cycle + (work+units-1)/units; fin > l {
				l = fin
			}
		}
	}
	pen := 0
	for i := range s.pairs {
		p := &s.pairs[i]
		wc, sc := s.cycleOf[p.wait], s.cycleOf[p.send]
		var span int
		switch {
		case wc >= 0 && sc >= 0:
			span = sc - wc
		case wc >= 0:
			// Send still unscheduled: it lands no earlier than its
			// propagated earliest start (valid whenever any node remains —
			// s.est was just refreshed above), and never closer than minsep.
			span = s.est[p.send] - wc
			if p.minsep > span {
				span = p.minsep
			}
		default:
			// Wait unscheduled: only the structural minimum separation is
			// forced (−1 for convertible pairs — they can finish LFD).
			span = p.minsep
		}
		if span < 0 {
			continue // LFD placement, no chain penalty
		}
		if v := p.links * (span + 1); v > pen {
			pen = v
		}
	}
	return l + pen
}

// dominated checks and updates the cycle-boundary dominance memo. Two
// boundary states with identical signatures (scheduled set, pending-latency
// deltas, unit-occupancy tails, pending-finish tail) reach isomorphic
// futures up to a uniform time shift; the one with component-wise >= cost
// vector (cycle, fixed pair contributions, wait ages, send leads) cannot
// beat the other and is cut.
func (s *searcher) dominated() bool {
	key := s.boundaryKey()
	vec := s.boundaryVec()
	stored, ok := s.memo[key]
	if ok {
		for _, sv := range stored {
			if dominates(sv, vec) {
				return true
			}
		}
	}
	if len(stored) < 16 {
		s.memo[string(key)] = append(stored, append(costVec(nil), vec...))
	}
	return false
}

func dominates(a, b costVec) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// boundaryKey renders the shift-invariant signature of the current
// cycle-boundary state.
func (s *searcher) boundaryKey() string {
	b := s.keyBuf[:0]
	for _, w := range s.mask {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	for v := 0; v < s.n; v++ {
		if s.cycleOf[v] >= 0 {
			continue
		}
		d := s.readyAt[v] - s.cycle
		if d < 0 {
			d = 0
		}
		b = append(b, byte(d)) // bounded by maxLat (<= 6)
	}
	for cls := dlx.Class(0); cls < dlx.NumClasses; cls++ {
		occ := s.occ[cls]
		for k := 0; k < s.maxLat; k++ {
			c := s.cycle + k
			if c < len(occ) {
				b = append(b, byte(occ[c]))
			} else {
				b = append(b, 0)
			}
		}
	}
	tail := s.maxFinish - s.cycle
	if tail < 0 {
		tail = 0
	}
	b = append(b, byte(tail)) // bounded by maxLat
	s.keyBuf = b
	return string(b)
}

// boundaryVec renders the cost vector compared under a fixed signature:
// the current cycle (a later boundary of the same signature only shifts
// the future later), then per pair either its fixed contribution (both
// endpoints placed), the wait's age cycle−j (wait placed: older waits can
// only stretch the span), or the send's lead i−cycle clamped at −1 (send
// placed: a smaller lead can only shrink the span).
func (s *searcher) boundaryVec() costVec {
	vec := s.vecBuf[:0]
	vec = append(vec, s.cycle)
	for i := range s.pairs {
		p := &s.pairs[i]
		wc, sc := s.cycleOf[p.wait], s.cycleOf[p.send]
		switch {
		case wc >= 0 && sc >= 0:
			contrib := 0
			if span := sc - wc; span >= 0 {
				contrib = p.links * (span + 1)
			}
			vec = append(vec, contrib)
		case wc >= 0:
			vec = append(vec, s.cycle-wc)
		case sc >= 0:
			lead := sc - s.cycle
			if lead < -1 {
				lead = -1
			}
			vec = append(vec, lead)
		}
	}
	s.vecBuf = vec
	return vec
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
