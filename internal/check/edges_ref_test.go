package check_test

import (
	"fmt"

	"doacross/internal/check"
	"doacross/internal/dep"
	"doacross/internal/tac"
)

// refEdges is the map-based edge derivation Edges replaced, kept verbatim
// as the reference the dense derivation is held to: same edges, same order,
// same errors.
func refEdges(p *tac.Program) ([]check.Edge, error) {
	if p == nil || p.Sync == nil || p.Sync.Analysis == nil {
		return nil, fmt.Errorf("check: program carries no dependence analysis")
	}
	var out []check.Edge
	seen := map[[3]int]bool{}
	add := func(from, to int, kind check.EdgeKind) {
		if from == to {
			return
		}
		key := [3]int{from, to, int(kind)}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, check.Edge{From: from, To: to, Kind: kind})
	}

	defOf := map[int32]int{}
	for i, in := range p.Instrs {
		if in.Dst != 0 {
			if prev, dup := defOf[in.Dst]; dup {
				return nil, fmt.Errorf("check: temp t%d defined twice (instrs %d and %d)", in.Dst, prev+1, i+1)
			}
			defOf[in.Dst] = i
		}
	}
	for i, in := range p.Instrs {
		for _, t := range in.Uses() {
			d, ok := defOf[int32(t)]
			if !ok {
				return nil, fmt.Errorf("check: instr %d uses undefined temp t%d", i+1, t)
			}
			if d >= i {
				return nil, fmt.Errorf("check: instr %d uses temp t%d defined later (instr %d)", i+1, t, d+1)
			}
			add(d, i, check.EdgeData)
		}
	}

	a := p.Sync.Analysis
	for _, d := range a.Deps {
		if d.Distance != 0 {
			continue
		}
		src, ok1 := refRefInstr(p, d.Src)
		snk, ok2 := refRefInstr(p, d.Snk)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("check: dependence %v has unmapped reference", d)
		}
		add(src, snk, check.EdgeMem)
	}

	for k := range p.Sync.Synced {
		d := *p.Sync.SyncedDep(k)
		if d.Src.Stmt < 0 || d.Src.Stmt >= len(p.Sync.Base.Body) {
			return nil, fmt.Errorf("check: synchronized dependence %v has no source statement", d)
		}
		label := p.Sync.Base.Body[d.Src.Stmt].Label
		send := p.SendFor(label)
		if send < 0 {
			return nil, fmt.Errorf("check: missing send for signal %s", label)
		}
		src, ok := refRefInstr(p, d.Src)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v source unmapped", d)
		}
		add(src, send, check.EdgeSrcToSend)
		wi, ok := refWaitIndex(p, d.Snk.Stmt, label, d.Distance)
		if !ok {
			return nil, fmt.Errorf("check: missing wait for %v", d)
		}
		snk, ok := refRefInstr(p, d.Snk)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v sink unmapped", d)
		}
		add(wi, snk, check.EdgeWaitToSnk)
	}
	return out, nil
}

func refRefInstr(p *tac.Program, r dep.Ref) (int, bool) {
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

func refWaitIndex(p *tac.Program, stmt int, signal string, dist int) (int, bool) {
	for i, in := range p.Instrs {
		if in.Op == tac.Wait && int(in.Stmt) == stmt && p.Name(in.Signal) == signal && int(in.SigDist) == dist {
			return i, true
		}
	}
	return 0, false
}
