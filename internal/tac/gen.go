package tac

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

// ScalarKey identifies a scalar access site for dependence→instruction
// mapping.
type ScalarKey struct {
	Stmt  int
	Name  string
	Write bool
}

// Program is the compiled body of one DOACROSS iteration.
type Program struct {
	// Sync is the synchronized source loop.
	Sync *syncop.Loop
	// Instrs is the instruction sequence in program order.
	Instrs []Instr
	// NumTemps is the highest temp number used.
	NumTemps int
	// Names is the name table the instructions' Syms index: every array,
	// scalar and signal name once, in order of first use, after the empty
	// name at Sym 0.
	Names []string
	// Consts is the table of immediates that Const operands index, each
	// value once, in order of first use.
	Consts []float64
	// ArrayInstr maps each array reference node of the AST to the index of
	// the load or store instruction generated for it (used to attach
	// synchronization dependence arcs).
	ArrayInstr map[*lang.ArrayRef]int32
	// ScalarInstr maps scalar access sites to the index of their load/store
	// instruction. Scalar loads are CSE'd per statement, so several reads of
	// X in one statement share an entry.
	ScalarInstr map[ScalarKey]int32
	// MergeLoad maps the LHS array reference of a conditional assignment to
	// the index of the merge load of the old element value emitted by
	// if-conversion.
	MergeLoad map[*lang.ArrayRef]int32

	// The synchronization lookups, built once by Generate: sendOf[v] is the
	// index of wait v's send (-1 for no send, and for every other
	// instruction), sends the send indexes ordered by (Signal, index), and
	// waits the wait indexes ordered by (Stmt, Signal, SigDist, index).
	// Compiled programs are shared through the caches, so the tables are
	// never filled later: a program assembled by hand has none, and its
	// lookups scan the instructions.
	sendOf, sends, waits []int32
}

// workPool recycles Generate's working program: the instruction stream
// and the name and constant tables grow in its storage, and Generate
// publishes copies of exactly their lengths, so one working program serves
// one Generate call after another.
var workPool = sync.Pool{New: func() any { return new(Program) }}

// affineKey is the CSE key of a pure subscript: AffineIndex proves the
// subscript evaluates to coef*I + off, so the coefficient pair identifies its
// value without stringifying the expression.
type affineKey struct {
	coef, off int
}

// binOpcode maps source binary operators to opcodes (a switch rather than a
// map literal: genIndex/genValue run per expression node on the compile hot
// path).
func binOpcode(op lang.BinOp) Opcode {
	switch op {
	case lang.OpAdd:
		return Add
	case lang.OpSub:
		return Sub
	case lang.OpMul:
		return Mul
	default:
		return Div
	}
}

// generator lowers one loop.
type generator struct {
	prog *Program
	// b is the working program the instructions and tables grow in.
	b        *Program
	iv       string
	nextTemp int
	// addrCSE caches scaled-address temps of pure subscripts within the
	// iteration.
	addrCSE map[affineKey]int
	// idxCSE caches unscaled index temps.
	idxCSE map[affineKey]int
	stmt   int
}

// Generate compiles the synchronized loop to three-address code.
func Generate(sl *syncop.Loop) (*Program, error) {
	// Maps are initialized on first write (nil-map reads are free): simple
	// loops without conditionals or scalars never pay for the ones they
	// don't use.
	g := &generator{
		prog: &Program{Sync: sl},
		b:    workPool.Get().(*Program),
		iv:   sl.Base.Var,
		stmt: -1,
	}
	defer g.release()
	for k, st := range sl.Base.Body {
		g.stmt = k
		for _, op := range sl.Pre[k] {
			g.emit(Instr{Op: Wait, Signal: g.b.Intern(op.Src), SigDist: int32(op.Distance)})
		}
		if err := g.genAssign(st); err != nil {
			// Attribute the failure to the statement's source position; the
			// inner message stays intact ("unsupported expression ...").
			if d, ok := diag.As(err); ok {
				return nil, d
			}
			return nil, diag.Errorf("tac", st.Pos(), "%v", err).WithStmt(st.Label)
		}
		for _, op := range sl.Post[k] {
			g.emit(Instr{Op: Send, Signal: g.b.Intern(op.Src)})
		}
	}
	p := g.prog
	p.Instrs = append(make([]Instr, 0, len(g.b.Instrs)), g.b.Instrs...)
	p.Names = append(make([]string, 0, len(g.b.Names)), g.b.Names...)
	p.Consts = append(make([]float64, 0, len(g.b.Consts)), g.b.Consts...)
	p.NumTemps = g.nextTemp
	p.index()
	return p, nil
}

// MustGenerate is Generate for known-good inputs (tests, examples).
func MustGenerate(sl *syncop.Loop) *Program {
	p, err := Generate(sl)
	if err != nil {
		panic(err)
	}
	return p
}

// release empties the working program, so a pooled one keeps no names
// alive, and returns it to workPool.
func (g *generator) release() {
	b := g.b
	clear(b.Names)
	b.Instrs, b.Names, b.Consts = b.Instrs[:0], b.Names[:0], b.Consts[:0]
	workPool.Put(b)
}

// emit appends an instruction of the current statement and returns its
// index.
func (g *generator) emit(in Instr) int32 {
	v := int32(len(g.b.Instrs))
	in.ID = v + 1
	in.Stmt = int32(g.stmt)
	g.b.Instrs = append(g.b.Instrs, in)
	return v
}

func (g *generator) setArrayInstr(ref *lang.ArrayRef, v int32) {
	if g.prog.ArrayInstr == nil {
		// Sized for the common loop body up front — incremental map growth
		// costs several allocations on the compile hot path.
		g.prog.ArrayInstr = make(map[*lang.ArrayRef]int32, 16)
	}
	g.prog.ArrayInstr[ref] = v
}

func (g *generator) setScalarInstr(key ScalarKey, v int32) {
	if g.prog.ScalarInstr == nil {
		g.prog.ScalarInstr = map[ScalarKey]int32{}
	}
	g.prog.ScalarInstr[key] = v
}

func (g *generator) temp() int {
	g.nextTemp++
	return g.nextTemp
}

// genAssign lowers one assignment, paper order: LHS address first, then RHS,
// then the store. Guarded assignments are if-converted: load the old value,
// compute the guard and the new value, select, store unconditionally — the
// form superscalar schedulers need (no intra-body control flow).
func (g *generator) genAssign(st *lang.Assign) error {
	switch lhs := st.LHS.(type) {
	case *lang.ArrayRef:
		addr, err := g.genAddress(lhs.Index)
		if err != nil {
			return err
		}
		var oldv Operand
		if st.Cond != nil {
			t := g.temp()
			v := g.emit(Instr{Op: Load, Dst: int32(t), Array: g.b.Intern(lhs.Name), A: TempOp(addr)})
			if g.prog.MergeLoad == nil {
				g.prog.MergeLoad = map[*lang.ArrayRef]int32{}
			}
			g.prog.MergeLoad[lhs] = v
			oldv = TempOp(t)
		}
		val, err := g.genValue(st.RHS)
		if err != nil {
			return err
		}
		if st.Cond != nil {
			val, err = g.genSelect(st.Cond, val, oldv)
			if err != nil {
				return err
			}
		}
		g.setArrayInstr(lhs, g.emit(Instr{Op: Store, Array: g.b.Intern(lhs.Name), A: TempOp(addr), B: val}))
		return nil
	case *lang.Scalar:
		var oldv Operand
		if st.Cond != nil {
			// The merge read shares the statement's scalar-load CSE slot.
			oldv = TempOp(g.scalarLoad(lhs.Name))
		}
		val, err := g.genValue(st.RHS)
		if err != nil {
			return err
		}
		if st.Cond != nil {
			val, err = g.genSelect(st.Cond, val, oldv)
			if err != nil {
				return err
			}
		}
		v := g.emit(Instr{Op: StoreS, Array: g.b.Intern(lhs.Name), B: val})
		g.setScalarInstr(ScalarKey{Stmt: g.stmt, Name: lhs.Name, Write: true}, v)
		return nil
	}
	return fmt.Errorf("unsupported assignment target %T", st.LHS)
}

// genSelect lowers the guard and merges new/old values.
func (g *generator) genSelect(c *lang.Cond, newv, oldv Operand) (Operand, error) {
	l, err := g.genValue(c.L)
	if err != nil {
		return Operand{}, err
	}
	r, err := g.genValue(c.R)
	if err != nil {
		return Operand{}, err
	}
	ct := g.temp()
	g.emit(Instr{Op: Cmp, Dst: int32(ct), A: l, B: r, Rel: c.Op})
	st := g.temp()
	g.emit(Instr{Op: Select, Dst: int32(st), A: newv, B: oldv, C: TempOp(ct)})
	return TempOp(st), nil
}

// genAddress computes the scaled byte address (4 * subscript) of an array
// element, reusing previously computed addresses for identical subscripts.
func (g *generator) genAddress(idx lang.Expr) (int, error) {
	// Cross-statement reuse is only safe for subscripts that are pure
	// functions of the induction variable; anything touching a mutable
	// scalar or array must be recomputed.
	coef, off, pure := lang.AffineIndex(idx, g.iv)
	key := affineKey{coef, off}
	if pure {
		if t, ok := g.addrCSE[key]; ok {
			return t, nil
		}
	}
	it, err := g.genIndex(idx)
	if err != nil {
		return 0, err
	}
	t := g.temp()
	g.emit(Instr{Op: Shl, Dst: int32(t), A: it, IntegerTyped: true})
	if pure {
		if g.addrCSE == nil {
			g.addrCSE = map[affineKey]int{}
		}
		g.addrCSE[key] = t
	}
	return t, nil
}

// genIndex lowers a subscript expression with integer arithmetic, returning
// an operand (temps for compound expressions, I / constants directly).
func (g *generator) genIndex(e lang.Expr) (Operand, error) {
	switch v := e.(type) {
	case *lang.Const:
		return g.b.ConstOp(v.Value), nil
	case *lang.Scalar:
		if v.Name == g.iv {
			return IVOp(), nil
		}
		// Loop-invariant scalar used in a subscript: load it once per
		// statement.
		return TempOp(g.scalarLoad(v.Name)), nil
	case *lang.Neg:
		x, err := g.genIndex(v.X)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		g.emit(Instr{Op: Sub, Dst: int32(t), A: g.b.ConstOp(0), B: x, IntegerTyped: true})
		return TempOp(t), nil
	case *lang.ArrayRef:
		// Indirect subscript (A[X[I]]): load the index element.
		addr, err := g.genAddress(v.Index)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		g.setArrayInstr(v, g.emit(Instr{Op: Load, Dst: int32(t), Array: g.b.Intern(v.Name), A: TempOp(addr)}))
		return TempOp(t), nil
	case *lang.Binary:
		coef, off, pure := lang.AffineIndex(e, g.iv)
		key := affineKey{coef, off}
		if pure {
			if t, ok := g.idxCSE[key]; ok {
				return TempOp(t), nil
			}
		}
		a, err := g.genIndex(v.L)
		if err != nil {
			return Operand{}, err
		}
		b, err := g.genIndex(v.R)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		op := binOpcode(v.Op)
		g.emit(Instr{Op: op, Dst: int32(t), A: a, B: b, IntegerTyped: op == Add || op == Sub})
		if pure {
			if g.idxCSE == nil {
				g.idxCSE = map[affineKey]int{}
			}
			g.idxCSE[key] = t
		}
		return TempOp(t), nil
	}
	return Operand{}, fmt.Errorf("unsupported subscript expression %T", e)
}

// genValue lowers a data expression (float pipeline).
func (g *generator) genValue(e lang.Expr) (Operand, error) {
	switch v := e.(type) {
	case *lang.Const:
		return g.b.ConstOp(v.Value), nil
	case *lang.Scalar:
		if v.Name == g.iv {
			return IVOp(), nil
		}
		return TempOp(g.scalarLoad(v.Name)), nil
	case *lang.ArrayRef:
		addr, err := g.genAddress(v.Index)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		g.setArrayInstr(v, g.emit(Instr{Op: Load, Dst: int32(t), Array: g.b.Intern(v.Name), A: TempOp(addr)}))
		return TempOp(t), nil
	case *lang.Neg:
		x, err := g.genValue(v.X)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		g.emit(Instr{Op: Sub, Dst: int32(t), A: g.b.ConstOp(0), B: x})
		return TempOp(t), nil
	case *lang.Binary:
		a, err := g.genValue(v.L)
		if err != nil {
			return Operand{}, err
		}
		b, err := g.genValue(v.R)
		if err != nil {
			return Operand{}, err
		}
		t := g.temp()
		op := binOpcode(v.Op)
		g.emit(Instr{Op: op, Dst: int32(t), A: a, B: b})
		return TempOp(t), nil
	}
	return Operand{}, fmt.Errorf("unsupported expression %T", e)
}

// scalarLoad loads a scalar from shared memory, CSE'd per statement. Writes
// to the scalar elsewhere in the loop make cross-statement reuse unsafe in
// general, so the cache resets per statement (the dependence analyzer's
// distance-0 arcs then order the accesses correctly).
func (g *generator) scalarLoad(name string) int {
	key := ScalarKey{Stmt: g.stmt, Name: name, Write: false}
	if v, ok := g.prog.ScalarInstr[key]; ok {
		return int(g.b.Instrs[v].Dst)
	}
	t := g.temp()
	g.setScalarInstr(key, g.emit(Instr{Op: LoadS, Dst: int32(t), Array: g.b.Intern(name)}))
	return t
}

// index builds the synchronization lookups of a freshly generated program
// in one allocation.
func (p *Program) index() {
	n, sends, waits := len(p.Instrs), 0, 0
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case Send:
			sends++
		case Wait:
			waits++
		}
	}
	tab := make([]int32, n+sends+waits)
	p.sendOf, p.sends, p.waits = tab[:n:n], tab[n:n:n+sends], tab[n+sends:n+sends]
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case Send:
			p.sends = append(p.sends, int32(i))
		case Wait:
			p.waits = append(p.waits, int32(i))
		}
	}
	slices.SortFunc(p.sends, func(a, b int32) int {
		if c := strings.Compare(p.Name(p.Instrs[a].Signal), p.Name(p.Instrs[b].Signal)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	slices.SortFunc(p.waits, func(a, b int32) int {
		y := &p.Instrs[b]
		if c := p.compareWait(&p.Instrs[a], int(y.Stmt), p.Name(y.Signal), int(y.SigDist)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for v := range p.Instrs {
		p.sendOf[v] = -1
		if in := &p.Instrs[v]; in.Op == Wait {
			p.sendOf[v] = int32(p.SendFor(p.Name(in.Signal)))
		}
	}
}

// compareWait orders a wait against the key (stmt, signal, dist).
func (p *Program) compareWait(in *Instr, stmt int, signal string, dist int) int {
	if c := cmp.Compare(int(in.Stmt), stmt); c != 0 {
		return c
	}
	if c := strings.Compare(p.Name(in.Signal), signal); c != 0 {
		return c
	}
	return cmp.Compare(int(in.SigDist), dist)
}

// indexed reports whether the program carries Generate's lookups.
func (p *Program) indexed() bool { return p.sendOf != nil && len(p.sendOf) == len(p.Instrs) }

// SendFor returns the index of the send instruction for the given signal
// name — the first in program order — or -1.
func (p *Program) SendFor(signal string) int {
	if !p.indexed() {
		for i := range p.Instrs {
			if in := &p.Instrs[i]; in.Op == Send && p.Name(in.Signal) == signal {
				return i
			}
		}
		return -1
	}
	k := sort.Search(len(p.sends), func(k int) bool { return p.Name(p.Instrs[p.sends[k]].Signal) >= signal })
	if k == len(p.sends) || p.Name(p.Instrs[p.sends[k]].Signal) != signal {
		return -1
	}
	return int(p.sends[k])
}

// SendOf returns the index of the send that wait v pairs with — the first
// send of its signal — or -1 when v is not a wait or its signal is never
// sent. It is the per-wait form of SendFor and costs one table read.
func (p *Program) SendOf(v int) int {
	if p.indexed() {
		return int(p.sendOf[v])
	}
	if p.Instrs[v].Op != Wait {
		return -1
	}
	return p.SendFor(p.Name(p.Instrs[v].Signal))
}

// WaitFor returns the index of the first wait of statement stmt for
// (signal, dist) in program order, or -1.
func (p *Program) WaitFor(stmt int, signal string, dist int) int {
	if !p.indexed() {
		for i := range p.Instrs {
			if in := &p.Instrs[i]; in.Op == Wait && p.compareWait(in, stmt, signal, dist) == 0 {
				return i
			}
		}
		return -1
	}
	k := sort.Search(len(p.waits), func(k int) bool { return p.compareWait(&p.Instrs[p.waits[k]], stmt, signal, dist) >= 0 })
	if k == len(p.waits) || p.compareWait(&p.Instrs[p.waits[k]], stmt, signal, dist) != 0 {
		return -1
	}
	return int(p.waits[k])
}
