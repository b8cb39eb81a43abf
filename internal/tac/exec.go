package tac

import (
	"fmt"
	"math"

	"doacross/internal/lang"
)

// Frame holds the register state of one executing iteration.
type Frame struct {
	// IV is the iteration number bound to the induction-variable register.
	IV int
	// Temps maps temp number -> value. Index 0 unused.
	Temps []float64
	// written tracks defined temps so use-before-def bugs in schedulers are
	// caught instead of silently reading zero.
	written []bool
}

// NewFrame returns a frame for a program with numTemps temps at iteration iv.
func NewFrame(numTemps, iv int) *Frame {
	return &Frame{IV: iv, Temps: make([]float64, numTemps+1), written: make([]bool, numTemps+1)}
}

// operand evaluates a source operand of an instruction of p.
func (f *Frame) operand(p *Program, o Operand) (float64, error) {
	switch o.Kind {
	case Temp:
		if o.Reg <= 0 || int(o.Reg) >= len(f.Temps) {
			return 0, fmt.Errorf("tac: temp t%d out of range", o.Reg)
		}
		if !f.written[o.Reg] {
			return 0, fmt.Errorf("tac: use of undefined temp t%d", o.Reg)
		}
		return f.Temps[o.Reg], nil
	case IV:
		return float64(f.IV), nil
	case Const:
		if o.Reg < 0 || int(o.Reg) >= len(p.Consts) {
			return 0, fmt.Errorf("tac: immediate #%d out of range", o.Reg)
		}
		return p.Imm(o), nil
	}
	return 0, fmt.Errorf("tac: invalid operand kind %d", o.Kind)
}

func (f *Frame) setTemp(r int32, v float64) error {
	if r <= 0 || int(r) >= len(f.Temps) {
		return fmt.Errorf("tac: destination temp t%d out of range", r)
	}
	f.Temps[r] = v
	f.written[r] = true
	return nil
}

// Exec executes a single instruction of the program against the frame and
// store. Synchronization instructions are no-ops here; the parallel
// simulator interprets them against the shared signal vector.
func (p *Program) Exec(in *Instr, f *Frame, st *lang.Store) error {
	switch in.Op {
	case Send, Wait:
		return nil
	case Load:
		addr, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		idx, err := byteToIndex(addr)
		if err != nil {
			return err
		}
		return f.setTemp(in.Dst, st.Elem(p.Name(in.Array), idx))
	case Store:
		addr, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		idx, err := byteToIndex(addr)
		if err != nil {
			return err
		}
		v, err := f.operand(p, in.B)
		if err != nil {
			return err
		}
		st.SetElem(p.Name(in.Array), idx, v)
		return nil
	case LoadS:
		return f.setTemp(in.Dst, st.Scalar(p.Name(in.Array)))
	case StoreS:
		v, err := f.operand(p, in.B)
		if err != nil {
			return err
		}
		st.SetScalar(p.Name(in.Array), v)
		return nil
	case Move:
		v, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		return f.setTemp(in.Dst, v)
	case Shl:
		v, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tac: non-finite subscript %v", v)
		}
		// Subscripts truncate toward zero at address formation, matching the
		// reference interpreter's FORTRAN-style integer subscripting.
		return f.setTemp(in.Dst, 4*math.Trunc(v))
	case Cmp:
		a, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		b, err := f.operand(p, in.B)
		if err != nil {
			return err
		}
		var holds bool
		switch in.Rel {
		case lang.RelLT:
			holds = a < b
		case lang.RelLE:
			holds = a <= b
		case lang.RelGT:
			holds = a > b
		case lang.RelGE:
			holds = a >= b
		case lang.RelEQ:
			holds = a == b
		case lang.RelNE:
			holds = a != b
		default:
			return fmt.Errorf("tac: unknown relation %d", int(in.Rel))
		}
		v := 0.0
		if holds {
			v = 1.0
		}
		return f.setTemp(in.Dst, v)
	case Select:
		c, err := f.operand(p, in.C)
		if err != nil {
			return err
		}
		a, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		b, err := f.operand(p, in.B)
		if err != nil {
			return err
		}
		if c != 0 {
			return f.setTemp(in.Dst, a)
		}
		return f.setTemp(in.Dst, b)
	case Add, Sub, Mul, Div:
		a, err := f.operand(p, in.A)
		if err != nil {
			return err
		}
		b, err := f.operand(p, in.B)
		if err != nil {
			return err
		}
		var v float64
		switch in.Op {
		case Add:
			v = a + b
		case Sub:
			v = a - b
		case Mul:
			v = a * b
		case Div:
			v = a / b
		}
		return f.setTemp(in.Dst, v)
	}
	return fmt.Errorf("tac: cannot execute %s", p.Format(in))
}

func byteToIndex(addr float64) (int, error) {
	if math.IsNaN(addr) || math.IsInf(addr, 0) {
		return 0, fmt.Errorf("tac: non-finite address %v", addr)
	}
	i := int(addr)
	if i%4 != 0 {
		return 0, fmt.Errorf("tac: misaligned address %d", i)
	}
	return i / 4, nil
}

// ExecIteration executes every instruction once for iteration iv, in the
// given order of instruction indexes (nil = program order). The order need
// not be the program order — any order that respects data dependences
// produces the same result, which is exactly what the scheduler
// differential tests verify.
func (p *Program) ExecIteration(order []int, iv int, st *lang.Store) error {
	f := NewFrame(p.NumTemps, iv)
	n := len(p.Instrs)
	if order != nil {
		n = len(order)
	}
	for k := 0; k < n; k++ {
		v := k
		if order != nil {
			v = order[k]
		}
		in := &p.Instrs[v]
		if err := p.Exec(in, f, st); err != nil {
			return fmt.Errorf("instr %d (%s): %w", in.ID, p.Format(in), err)
		}
	}
	return nil
}

// Run executes the compiled loop sequentially for iterations lo..hi, the TAC
// analogue of lang.Loop.Run.
func (p *Program) Run(st *lang.Store) error {
	lo, hi, err := p.Sync.Base.Bounds(st)
	if err != nil {
		return err
	}
	for i := lo; i <= hi; i++ {
		if err := p.ExecIteration(nil, i, st); err != nil {
			return fmt.Errorf("tac: iteration %d: %w", i, err)
		}
	}
	return nil
}
