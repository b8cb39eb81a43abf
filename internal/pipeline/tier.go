package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/passes"
)

// The persistent tier stores one self-contained entry per verified
// scheduling outcome: the loop source, the option salts it was compiled and
// scheduled under, the machine, the trip count, the schedules (as issue
// rows — everything else is rederived) and the simulated timings. An entry
// is enough to rebuild all three in-memory cache levels (compile memo,
// schedule entry, time entry) without trusting anything but the source
// text: the compiled program and graph are recomputed, the schedules are
// re-verified by internal/check, and the recomputed content address must
// match the filename the entry was stored under.
//
// Degraded results, budget-exhausted exact results and anything that failed
// verification are never persisted, mirroring the in-memory cache's
// verify-before-publish rule.

// diskSchedule is the persisted form of one core.Schedule: the issue rows
// (Rows[c] = node indices issued at cycle c, in issue order) and the
// producing method name. Cycle is rederived from Rows on load.
type diskSchedule struct {
	Method string  `json:"method"`
	Rows   [][]int `json:"rows"`
}

// diskPayload is the JSON payload of one persistent-tier entry.
type diskPayload struct {
	Name        string        `json:"name"`
	Source      string        `json:"source"`
	CompileSalt string        `json:"compile_salt"`
	SchedSalt   string        `json:"sched_salt"`
	ExactSalt   string        `json:"exact_salt"`
	Machine     dlx.Config    `json:"machine"`
	N           int           `json:"n"`
	Window      int           `json:"window"`
	Backend     string        `json:"backend"`
	List        *diskSchedule `json:"list"`
	Sync        *diskSchedule `json:"sync"`
	Best        *diskSchedule `json:"best,omitempty"`
	PredictedT  int           `json:"predicted_t"`
	PredictedAt int           `json:"predicted_at_n,omitempty"`
	Optimal     bool          `json:"optimal,omitempty"`
	LowerBound  int           `json:"lower_bound,omitempty"`
	SearchNodes int64         `json:"search_nodes,omitempty"`
	Note        string        `json:"note,omitempty"`
	Times       timeCounters  `json:"times"`
}

// toDisk snapshots a schedule for persistence (nil in, nil out).
func toDisk(s *core.Schedule) *diskSchedule {
	if s == nil {
		return nil
	}
	return &diskSchedule{Method: s.Method, Rows: s.Rows}
}

// rebuild reconstructs a core.Schedule from its persisted rows over a
// freshly recompiled program and graph (nil in, nil out). It validates only
// the indexing shape needed to build the struct; semantic verification is
// check.VerifyLoaded's job.
func (d *diskSchedule) rebuild(prog *core.Schedule) (*core.Schedule, error) {
	if d == nil {
		return nil, nil
	}
	n := len(prog.Prog.Instrs)
	cycle := make([]int, n)
	for i := range cycle {
		cycle[i] = -1
	}
	for c, row := range d.Rows {
		for _, v := range row {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("row %d references unknown instruction %d", c, v)
			}
			if cycle[v] != -1 {
				return nil, fmt.Errorf("instruction %d scheduled twice", v)
			}
			cycle[v] = c
		}
	}
	for i, c := range cycle {
		if c == -1 {
			return nil, fmt.Errorf("instruction %d never scheduled", i)
		}
	}
	return &core.Schedule{
		Prog:   prog.Prog,
		Graph:  prog.Graph,
		Cfg:    prog.Cfg,
		Cycle:  cycle,
		Rows:   d.Rows,
		Method: d.Method,
	}, nil
}

// persistResult writes m's fresh, verified, cacheable result to the disk
// tier, under a content address in a key space disjoint from the in-memory
// "sched"/"time" keys: the scheduling problem plus the simulation
// coordinates. Persistence failures are counted by the store and never fail
// the request — the disk tier is an optimization, not a dependency.
func (r *runner) persistResult(m *machineRun) {
	e, k := m.entry, &r.keys
	p := diskPayload{
		Name:        r.res.Name,
		Source:      r.src,
		CompileSalt: r.compileSalt,
		SchedSalt:   k.schedSalt,
		ExactSalt:   k.exSalt,
		Machine:     m.cfg,
		N:           k.n,
		Window:      k.window,
		Backend:     e.backend,
		List:        toDisk(e.list),
		Sync:        toDisk(e.sync),
		Best:        toDisk(e.best),
		PredictedT:  e.predictedT,
		PredictedAt: e.predictedAtN,
		Optimal:     e.optimal,
		LowerBound:  e.lowerBound,
		SearchNodes: e.searchNodes,
		Note:        e.note,
		Times:       m.times.timeCounters,
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return
	}
	// Put's error is reflected in the store's WriteErrors counter.
	_ = r.opt.Disk.Put(k.key(keyDisk, m.cfg), payload)
}

// LoadStats summarizes one LoadDisk pass.
type LoadStats struct {
	// Scanned counts entries visited; Loaded the entries that passed every
	// check and were published to the in-memory cache.
	Scanned, Loaded int
	// Stale counts well-formed entries skipped and left on disk: those
	// produced under other options than opt's (see LoadDisk), and
	// verified entries whose schedule key is bound to a different verified
	// set, so that their simulated times would be served beside schedules
	// they do not describe. The next live request at such an entry's trip
	// count re-simulates the bound set and overwrites the entry.
	Stale int
	// Corrupt counts entries that failed integrity or semantic verification
	// and were quarantined.
	Corrupt int
	// Errors counts entries skipped on transient read failures (left on
	// disk for the next load).
	Errors int
}

// String renders the load summary.
func (ls LoadStats) String() string {
	return fmt.Sprintf("scanned=%d loaded=%d stale=%d corrupt=%d errors=%d",
		ls.Scanned, ls.Loaded, ls.Stale, ls.Corrupt, ls.Errors)
}

// LoadDisk restores the persistent tier into the in-memory cache, so a
// restarted service comes up warm. The entries are loaded on GOMAXPROCS
// workers (FanOut); each entry's outcome lands in a slot of its own and
// LoadStats is summed from the slots after the join, so the counts do not
// depend on scheduling. Every entry is re-earned, never trusted:
//
//  1. The store's checksum and header must validate (torn writes, bit rot).
//  2. The entry's compile salt and window must be opt's, and its
//     scheduler salt opt's under any backend (passes.BackendNames);
//     entries written under other options are skipped as stale.
//  3. The loop source is recompiled through the compile memo in cache:
//     the first compilation published is the one every entry of that
//     source (an entry's siblings at other trip counts) is checked against.
//     Verify once: when the schedule key is already bound to a set with
//     byte-identical list, sync and best rows over that same program, the
//     bound set stands for the entry's, because it passed verification
//     when it was bound. Otherwise the persisted issue rows are rebuilt
//     into schedules over the program and graph.
//  4. A rebuilt set passes check.VerifyLoaded — the same independent
//     verifier fresh schedules must pass — and every entry's simulated
//     times pass the timing audit against its set. Pairing: the entry's
//     time is published only if the set bound under its schedule key is
//     the set it was audited against; when another verified set holds the
//     key, the entry is stale and stays on disk.
//  5. The entry's recomputed content address must equal the key it was
//     stored under, so an entry cannot impersonate another problem.
//
// Entries failing 1, 3, 4 or 5 are quarantined and counted. On success the
// compile memo, schedule entry and time entry are published to cache under
// the same keys a live run would use: subsequent requests for the loop are
// pure memory hits, with zero recompiles and zero reschedules.
//
// A cancelled ctx stops every worker before its next entry, nothing is
// published after a worker sees the cancellation, and LoadDisk returns the
// context's error with the counts of the entries visited.
//
// The compilations LoadDisk performs are deliberately not traced into any
// metrics registry: they are warmup verification work, not served traffic.
func LoadDisk(ctx context.Context, d *DiskStore, cache *Cache, opt Options) (LoadStats, error) {
	var ls LoadStats
	if d == nil || cache == nil {
		return ls, errors.New("pipeline: LoadDisk needs a store and a cache")
	}
	keys, err := d.Keys()
	if err != nil {
		return ls, err
	}
	popts := opt.Compile
	popts.Tracer = nil
	popts.FaultHook = nil
	popts.Observer = nil
	popts.Request = ""
	l := &loader{d: d, cache: cache, popts: popts, window: opt.Window,
		compileSalt: opt.compileSalt()}
	for _, b := range passes.BackendNames() {
		opt.Compile.Backend = b
		l.schedSalts = append(l.schedSalts, opt.salt())
	}
	outcomes := make([]loadOutcome, len(keys))
	err = FanOut(0, len(keys), func(i int) (err error) {
		if err = ctx.Err(); err == nil {
			outcomes[i], err = l.load(ctx, keys[i])
		}
		return err
	})
	for _, o := range outcomes {
		if o != loadUnvisited {
			ls.Scanned++
		}
		switch o {
		case loadLoaded:
			ls.Loaded++
		case loadStale:
			ls.Stale++
		case loadCorrupt:
			ls.Corrupt++
		case loadError:
			ls.Errors++
		}
	}
	return ls, err
}

// loadOutcome is what LoadDisk made of one entry.
type loadOutcome uint8

const (
	// loadUnvisited: the load was cancelled before the entry's turn.
	loadUnvisited loadOutcome = iota
	// loadScanned: visited and counted nowhere else — the entry vanished
	// between Keys and Get, or the load was cancelled while it was checked.
	loadScanned
	loadLoaded
	loadStale
	loadCorrupt
	loadError
)

// loader is the state one LoadDisk pass shares, read-only, with its
// workers.
type loader struct {
	d     *DiskStore
	cache *Cache
	// popts compiles untraced and unprobed.
	popts       passes.Options
	compileSalt string
	schedSalts  []string // opt's scheduler salt under every backend
	window      int
}

// load re-earns the entry filed under k (see LoadDisk). Its error is
// non-nil only when ctx ended the load.
func (l *loader) load(ctx context.Context, k dfg.Fingerprint) (loadOutcome, error) {
	payload, err := l.d.Get(k)
	var ce *CorruptEntryError
	switch {
	case err == nil:
	case errors.As(err, &ce):
		_ = l.d.Quarantine(k)
		return loadCorrupt, nil
	case errors.Is(err, os.ErrNotExist):
		return loadScanned, nil // raced with quarantine/replacement; nothing to load
	default:
		return loadError, nil
	}
	quarantine := func() (loadOutcome, error) {
		l.d.corrupt.Add(1)
		_ = l.d.Quarantine(k)
		return loadCorrupt, nil
	}
	var p diskPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return quarantine()
	}
	if p.CompileSalt != l.compileSalt || !slices.Contains(l.schedSalts, p.SchedSalt) || p.Window != l.window {
		return loadStale, nil
	}
	if p.Source == "" || p.Sync == nil || p.List == nil || p.N < 1 || p.N > MaxTrip ||
		p.Machine.Validate() != nil {
		return quarantine()
	}
	// Recompile the source through the memo, first-writer-wins: every
	// entry of one source is checked against one program.
	srcKey := sourceKey(p.Source, l.compileSalt)
	v, ok := l.cache.Get(srcKey)
	if !ok {
		pctx, err := passes.New(l.popts).RunSourceCtx(ctx, p.Source)
		if err != nil {
			if ctx.Err() != nil {
				return loadScanned, ctx.Err()
			}
			return quarantine()
		}
		v, _ = l.cache.Put(srcKey, newCompileEntry(pctx, l.popts.Verify))
	}
	compiled := v.(*compileEntry)
	pk := keySet{fp: compiled.fp, schedSalt: p.SchedSalt, exSalt: p.ExactSalt,
		n: p.N, window: p.Window}
	schedKey := pk.key(keySched, p.Machine)
	var list, sync, best *core.Schedule
	v, _ = l.cache.Get(schedKey)
	if be, _ := v.(*schedEntry); be != nil && be.sync != nil && be.sync.Prog == compiled.prog && p.sameSet(be) {
		// Verify once: the bound set is this entry's, over the same
		// program, and passed verification when it was bound. The timing
		// audit of the entry's own times remains.
		list, sync, best = be.list, be.sync, be.best
		if check.Err(check.VerifyTiming(sync, p.Times.SyncTime, p.N)) != nil {
			return quarantine()
		}
	} else {
		// Rebuild the schedules over the fresh program and graph. The
		// restored set must pass exactly the checks fresh ones do
		// (independent semantic verification, timing audit included).
		base := &core.Schedule{Prog: compiled.prog, Graph: compiled.graph, Cfg: p.Machine}
		var lerr, serr, berr error
		list, lerr = p.List.rebuild(base)
		sync, serr = p.Sync.rebuild(base)
		best, berr = p.Best.rebuild(base)
		if errors.Join(lerr, serr, berr) != nil ||
			check.Err(check.VerifyLoaded(list, sync, best, p.Times.SyncTime, p.N)) != nil {
			return quarantine()
		}
	}
	// Content-address audit: the key recomputed from the entry's own
	// contents must be the key it was filed under.
	if pk.key(keyDisk, p.Machine) != k {
		return quarantine()
	}
	entry := &schedEntry{
		list: list, sync: sync, best: best,
		backend:      p.Backend,
		predictedT:   p.PredictedT,
		predictedAtN: p.PredictedAt,
		optimal:      p.Optimal,
		lowerBound:   p.LowerBound,
		searchNodes:  p.SearchNodes,
		note:         p.Note,
	}
	if !entry.cacheable() {
		// A budget-exhausted exact result should never have been
		// persisted; refuse to launder it into the cache.
		return quarantine()
	}
	if err := ctx.Err(); err != nil {
		return loadScanned, err
	}
	// Pairing: the times describe the audited set, so they are published
	// only beside it. The first writer of the schedule key wins; if that is
	// a different verified set, the entry is stale.
	if v, _ := l.cache.Put(schedKey, entry); !p.sameSet(v.(*schedEntry)) {
		return loadStale, nil
	}
	l.cache.Put(pk.key(keyTime, p.Machine), &timeEntry{timeCounters: p.Times})
	return loadLoaded, nil
}

// sameSet reports whether e holds the payload's schedule set: list, sync
// and best each absent from both or present in both with byte-identical
// issue rows.
func (p *diskPayload) sameSet(e *schedEntry) bool {
	return p.List.same(e.list) && p.Sync.same(e.sync) && p.Best.same(e.best)
}

// same reports whether d and s are both absent or have identical rows.
func (d *diskSchedule) same(s *core.Schedule) bool {
	if d == nil || s == nil {
		return d == nil && s == nil
	}
	return slices.EqualFunc(d.Rows, s.Rows, slices.Equal[[]int])
}
