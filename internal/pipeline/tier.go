package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"doacross/internal/check"
	"doacross/internal/core"
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
	// Stale counts well-formed entries skipped because they were produced
	// under different options (salts or window) than opt's.
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
// restarted service comes up warm. Every entry is re-earned, never
// trusted:
//
//  1. The store's checksum and header must validate (torn writes, bit rot).
//  2. The entry's option salts and window must match opt's — entries
//     written under other configurations are skipped as stale.
//  3. The loop source is recompiled through the pass manager (sharing
//     compilations via cache) and the persisted issue rows are rebuilt
//     into schedules over the fresh program and graph.
//  4. The rebuilt set passes check.VerifyLoaded — the same independent
//     verifier fresh schedules must pass — including the timing audit of
//     the persisted simulated times.
//  5. The entry's recomputed content address must equal the key it was
//     stored under, so an entry cannot impersonate another problem.
//
// Entries failing 1, 3, 4 or 5 are quarantined and counted. On success the
// compile memo, schedule entry and time entry are published to cache under
// the same keys a live run would use: subsequent requests for the loop are
// pure memory hits, with zero recompiles and zero reschedules.
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
	compileSalt := opt.compileSalt()
	schedSalt := opt.salt()
	for _, k := range keys {
		if ctx.Err() != nil {
			return ls, ctx.Err()
		}
		ls.Scanned++
		payload, err := d.Get(k)
		var ce *CorruptEntryError
		switch {
		case err == nil:
		case errors.As(err, &ce):
			ls.Corrupt++
			_ = d.Quarantine(k)
			continue
		case errors.Is(err, os.ErrNotExist):
			continue // raced with quarantine/replacement; nothing to load
		default:
			ls.Errors++
			continue
		}
		quarantine := func() {
			ls.Corrupt++
			d.corrupt.Add(1)
			_ = d.Quarantine(k)
		}
		var p diskPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			quarantine()
			continue
		}
		if p.CompileSalt != compileSalt || p.SchedSalt != schedSalt || p.Window != opt.Window {
			ls.Stale++
			continue
		}
		if p.Source == "" || p.Sync == nil || p.List == nil || p.N < 1 || p.N > MaxTrip ||
			p.Machine.Validate() != nil {
			quarantine()
			continue
		}
		// Recompile the source (through the memo: repeated loops compile
		// once per load). The compilation is the ground truth the persisted
		// rows are verified against.
		srcKey := sourceKey(p.Source, compileSalt)
		var compiled *compileEntry
		if v, ok := cache.Get(srcKey); ok {
			compiled = v.(*compileEntry)
		} else {
			popts := opt.Compile
			popts.Tracer = nil
			popts.FaultHook = nil
			popts.Observer = nil
			popts.Request = ""
			pctx, err := passes.New(popts).RunSourceCtx(ctx, p.Source)
			if err != nil {
				if ctx.Err() != nil {
					return ls, ctx.Err()
				}
				quarantine()
				continue
			}
			v, _ := cache.Put(srcKey, newCompileEntry(pctx, opt.Compile.Verify))
			compiled = v.(*compileEntry)
		}
		// Rebuild the schedules over the fresh program and graph. The
		// restored set must pass exactly the checks fresh ones do
		// (independent semantic verification, timing audit included).
		base := &core.Schedule{Prog: compiled.prog, Graph: compiled.graph, Cfg: p.Machine}
		list, lerr := p.List.rebuild(base)
		sync, serr := p.Sync.rebuild(base)
		best, berr := p.Best.rebuild(base)
		if errors.Join(lerr, serr, berr) != nil ||
			check.Err(check.VerifyLoaded(list, sync, best, p.Times.SyncTime, p.N)) != nil {
			quarantine()
			continue
		}
		// Content-address audit: the key recomputed from the entry's own
		// contents must be the key it was filed under.
		pk := keySet{fp: compiled.fp, schedSalt: schedSalt, exSalt: p.ExactSalt,
			n: p.N, window: p.Window}
		if pk.key(keyDisk, p.Machine) != k {
			quarantine()
			continue
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
			quarantine()
			continue
		}
		cache.Put(pk.key(keySched, p.Machine), entry)
		cache.Put(pk.key(keyTime, p.Machine), &timeEntry{timeCounters: p.Times})
		ls.Loaded++
	}
	return ls, nil
}
