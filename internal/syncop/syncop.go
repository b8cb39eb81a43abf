// Package syncop converts a DO loop with loop-carried dependences into a
// DOACROSS loop by inserting synchronization operations, following the
// scheme the paper adopts from Midkiff/Padua and Zima/Chapman:
//
//   - a send statement immediately after each dependence source S:
//     Send_Signal(S)
//   - a wait statement immediately before each dependence sink S':
//     Wait_Signal(S, i-d), where d is the dependence distance.
//
// One Send_Signal(S) per source statement serves every dependence sourced at
// S (the paper's Fig. 1 inserts a single Send_Signal(S3) for both the
// distance-1 and distance-2 dependences).
package syncop

import (
	"fmt"
	"strings"

	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
)

// OpKind distinguishes sends from waits.
type OpKind int

// Synchronization operation kinds.
const (
	Send OpKind = iota
	Wait
)

// Op is one synchronization operation attached to a statement.
type Op struct {
	Kind OpKind
	// Src is the label of the dependence source statement; the signal
	// namespace is keyed by source statement, as in the paper.
	Src string
	// Distance is the dependence distance d: Wait_Signal(Src, i-d) waits for
	// iteration i-d's send. Unused for sends.
	Distance int
}

// String renders the op in the paper's notation.
func (o Op) String() string {
	if o.Kind == Send {
		return fmt.Sprintf("Send_Signal(%s)", o.Src)
	}
	if o.Distance == 0 {
		return fmt.Sprintf("Wait_Signal(%s, I)", o.Src)
	}
	return fmt.Sprintf("Wait_Signal(%s, I-%d)", o.Src, o.Distance)
}

// Loop is a DOACROSS loop: the original statements plus synchronization
// operations positioned before/after them.
type Loop struct {
	Base *lang.Loop
	// Analysis is the dependence analysis the insertion was driven by.
	Analysis *dep.Analysis
	// Synced lists the dependences that received synchronization, in
	// analysis order, as indexes into Analysis.Deps; SyncedDep reads one.
	Synced []int32
	// Pre[k] are the waits immediately before statement k; Post[k] the sends
	// immediately after it.
	Pre, Post [][]Op
}

// SyncedDep returns the k-th synchronized dependence (0 <= k <
// len(Synced)), which the analysis holds.
func (l *Loop) SyncedDep(k int) *dep.Dependence { return &l.Analysis.Deps[l.Synced[k]] }

// Options controls which dependences are synchronized.
type Options struct {
	// FlowOnly limits synchronization to loop-carried flow dependences. The
	// paper's measured benchmarks are dominated by flow LBDs; anti/output
	// dependences are usually removed beforehand by renaming transformations
	// (scalar expansion etc.). Default false: synchronize everything, which
	// is what the parallel-correctness differential tests require.
	FlowOnly bool
}

// Insert builds the DOACROSS form of the loop. The analysis must be for the
// same loop object.
func Insert(a *dep.Analysis, opts Options) *Loop {
	loop := a.Loop
	prePost := make([][]Op, 2*len(loop.Body))
	out := &Loop{
		Base:     loop,
		Analysis: a,
		Pre:      prePost[:len(loop.Body)],
		Post:     prePost[len(loop.Body):],
	}
	synced := func(d *dep.Dependence) bool {
		return d.Carried() && (!opts.FlowOnly || d.Kind == dep.Flow)
	}
	n := 0
	for i := range a.Deps {
		if synced(&a.Deps[i]) {
			n++
		}
	}
	if n > 0 {
		out.Synced = make([]int32, 0, n)
	}
	sentFrom := make([]bool, len(loop.Body)) // source statement index -> send inserted
	type waitKey struct {
		snk, src, d int
	}
	var waited map[waitKey]bool
	for i := range a.Deps {
		d := &a.Deps[i]
		if !synced(d) {
			continue
		}
		out.Synced = append(out.Synced, int32(i))
		srcStmt := d.Src.Stmt
		srcLabel := loop.Body[srcStmt].Label
		if !sentFrom[srcStmt] {
			sentFrom[srcStmt] = true
			out.Post[srcStmt] = append(out.Post[srcStmt], Op{Kind: Send, Src: srcLabel})
		}
		wk := waitKey{snk: d.Snk.Stmt, src: srcStmt, d: d.Distance}
		if !waited[wk] {
			if waited == nil {
				waited = make(map[waitKey]bool, 8)
			}
			waited[wk] = true
			out.Pre[d.Snk.Stmt] = append(out.Pre[d.Snk.Stmt], Op{Kind: Wait, Src: srcLabel, Distance: d.Distance})
		}
	}
	// Waits before a statement are ordered by descending distance, matching
	// the paper's Fig. 1(b): the wait for the farthest-back iteration is
	// textually first (its signal arrives earliest, so this order minimizes
	// blocked time in a strictly in-order execution).
	for k := range out.Pre {
		pre := out.Pre[k]
		for i := 1; i < len(pre); i++ {
			for j := i; j > 0 && pre[j].Distance > pre[j-1].Distance; j-- {
				pre[j], pre[j-1] = pre[j-1], pre[j]
			}
		}
	}
	return out
}

// Item is one element of the flattened DOACROSS body: either a
// synchronization op or a statement.
type Item struct {
	// Op is non-nil for synchronization operations.
	Op *Op
	// Stmt is non-nil for assignment statements; StmtIndex is its 0-based
	// position in the original body.
	Stmt      *lang.Assign
	StmtIndex int
}

// Items returns the loop body flattened to execution order:
// waits(S1) S1 sends(S1) waits(S2) S2 sends(S2) ... Each item's Op points
// into the loop's own Pre and Post, so callers read it and must not modify
// it.
func (l *Loop) Items() []Item {
	sends, waits := l.NumOps()
	items := make([]Item, 0, len(l.Base.Body)+sends+waits)
	for k, st := range l.Base.Body {
		for i := range l.Pre[k] {
			items = append(items, Item{Op: &l.Pre[k][i], StmtIndex: k})
		}
		items = append(items, Item{Stmt: st, StmtIndex: k})
		for i := range l.Post[k] {
			items = append(items, Item{Op: &l.Post[k][i], StmtIndex: k})
		}
	}
	return items
}

// NumOps returns the number of sends and waits inserted.
func (l *Loop) NumOps() (sends, waits int) {
	for k := range l.Base.Body {
		sends += len(l.Post[k])
		waits += len(l.Pre[k])
	}
	return sends, waits
}

// String renders the DOACROSS loop in the paper's Fig. 1(b) style.
func (l *Loop) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DOACROSS %s = %s, %s\n", l.Base.Var, l.Base.Lo, l.Base.Hi)
	for _, it := range l.Items() {
		if it.Op != nil {
			fmt.Fprintf(&sb, "  %s;\n", it.Op)
			continue
		}
		fmt.Fprintf(&sb, "  %s: %s;\n", it.Stmt.Label, it.Stmt)
	}
	sb.WriteString("END_DOACROSS\n")
	return sb.String()
}

// Signals returns the sorted set of signal names (source statement labels)
// used by the loop.
func (l *Loop) Signals() []string {
	set := map[string]bool{}
	for k := range l.Base.Body {
		for _, op := range l.Post[k] {
			set[op.Src] = true
		}
		for _, op := range l.Pre[k] {
			set[op.Src] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// insertion sort; tiny sets
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Validate checks the two synchronization conditions of §2 on the flattened
// body: every Wait appears before its sink statement and every Send after
// its source statement. Insert constructs loops that satisfy this by
// construction; Validate exists for downstream passes (the schedulers) that
// reorder instructions.
func (l *Loop) Validate() error {
	items := l.Items()
	for idx, it := range items {
		if it.Op == nil {
			continue
		}
		srcIdx := l.Base.StmtIndex(it.Op.Src)
		if srcIdx < 0 {
			return diag.Errorf("syncop", diag.Pos{}, "op %v references unknown statement", it.Op)
		}
		src := l.Base.Body[srcIdx]
		switch it.Op.Kind {
		case Send:
			// Send must come after its source statement.
			found := false
			for j := 0; j < idx; j++ {
				if items[j].Stmt != nil && items[j].StmtIndex == srcIdx {
					found = true
					break
				}
			}
			if !found {
				return diag.Errorf("syncop", src.Pos(), "%v precedes its source statement", it.Op).WithStmt(src.Label)
			}
		case Wait:
			// Wait must come before its sink statement (the statement it is
			// attached to).
			snk := l.Base.Body[it.StmtIndex]
			for j := 0; j < idx; j++ {
				if items[j].Stmt != nil && items[j].StmtIndex == it.StmtIndex {
					return diag.Errorf("syncop", snk.Pos(), "%v follows its sink statement", it.Op).WithStmt(snk.Label)
				}
			}
		}
	}
	return nil
}
