// Package tac lowers a synchronized DOACROSS loop body to DLX-style
// three-address code, the "internal form" the paper feeds its simulator
// (§4.1). The lowering follows the paper's Fig. 2 exactly:
//
//   - array subscripts are computed in integer registers (integer unit),
//   - byte addresses are formed by a scale-by-4 shift (shifter unit),
//   - array elements move through load/store instructions,
//   - data arithmetic runs on the float/multiplier/divider units,
//   - Wait_Signal sits immediately before its statement's code and
//     Send_Signal immediately after, preserving the synchronization
//     conditions at the instruction level.
//
// Address computations are reused across statements of the iteration
// (common-subexpression elimination), matching the paper's reuse of
// t1 = 4*I for B[t1], B[t1] and A[t1].
package tac

import (
	"fmt"
	"math"
	"strings"

	"doacross/internal/dlx"
	"doacross/internal/lang"
)

// Opcode is a three-address-code operation.
type Opcode uint8

// Opcodes.
const (
	Load   Opcode = iota // Dst <- Array[A]       (A = address temp)
	Store                // Array[A] <- B
	LoadS                // Dst <- scalar Array   (scalar load; Array = name)
	StoreS               // scalar Array <- B
	Add                  // Dst <- A + B
	Sub                  // Dst <- A - B
	Mul                  // Dst <- A * B
	Div                  // Dst <- A / B
	Shl                  // Dst <- A * 4          (address scaling shift)
	Move                 // Dst <- A
	Cmp                  // Dst <- A rel B (1.0 or 0.0); Rel selects the relation
	Select               // Dst <- C != 0 ? A : B (if-conversion merge)
	Send                 // Send_Signal(Signal)
	Wait                 // Wait_Signal(Signal, I-SigDist)
)

// String names the opcode.
func (op Opcode) String() string {
	switch op {
	case Load:
		return "load"
	case Store:
		return "store"
	case LoadS:
		return "loads"
	case StoreS:
		return "stores"
	case Add:
		return "add"
	case Sub:
		return "sub"
	case Mul:
		return "mul"
	case Div:
		return "div"
	case Shl:
		return "shl"
	case Move:
		return "move"
	case Cmp:
		return "cmp"
	case Select:
		return "select"
	case Send:
		return "send"
	case Wait:
		return "wait"
	}
	return fmt.Sprintf("Opcode(%d)", int(op))
}

// OperandKind classifies an instruction operand.
type OperandKind uint8

// Operand kinds.
const (
	None  OperandKind = iota
	Temp              // virtual register t<k>
	IV                // the induction variable register
	Const             // immediate
)

// Operand is one source operand.
type Operand struct {
	Kind OperandKind
	// Reg is the temp number for Kind==Temp, and for Kind==Const the index
	// of the immediate in its program's constant table (Program.Consts).
	Reg int32
}

// TempOp returns a temp operand.
func TempOp(r int) Operand { return Operand{Kind: Temp, Reg: int32(r)} }

// IVOp returns the induction-variable operand.
func IVOp() Operand { return Operand{Kind: IV} }

// Sym names an array, a scalar or a signal of one program: an index into
// its name table (Program.Names). Sym 0 is the empty name.
type Sym int32

// Instr is one three-address instruction. Every field is at most 32 bits
// wide, and names and immediates are indices into the tables of the
// program that holds the instruction, so an instruction is rendered,
// executed and fingerprinted through its Program.
type Instr struct {
	// ID is the 1-based position in the generated sequence (the paper's
	// instruction numbering in Fig. 2/3/4).
	ID int32
	// Dst is the destination temp (0 = none).
	Dst int32
	// A, B are the source operands. For Load, A is the address temp; for
	// Store, A is the address and B the stored value. C is the guard operand
	// of Select (Dst <- C != 0 ? A : B).
	A, B, C Operand
	// Array is the array (or scalar, for LoadS/StoreS) name.
	Array Sym
	// Signal and SigDist describe Send/Wait operations: the signal name
	// (source statement label) and the wait distance d.
	Signal  Sym
	SigDist int32
	// Stmt is the 0-based index of the originating source statement; -1 for
	// none.
	Stmt int32
	Op   Opcode
	// Rel is the relation computed by Cmp.
	Rel lang.RelOp
	// IntegerTyped marks address/index arithmetic, which runs on the integer
	// unit; data arithmetic runs on the float unit.
	IntegerTyped bool
}

// Class returns the function-unit class executing the instruction.
func (in *Instr) Class() dlx.Class {
	switch in.Op {
	case Load, Store, LoadS, StoreS:
		return dlx.LoadStore
	case Shl:
		return dlx.Shifter
	case Mul:
		return dlx.Multiplier
	case Div:
		return dlx.Divider
	case Send, Wait:
		return dlx.Sync
	case Cmp:
		// Comparisons run on the integer unit (DLX-style set-on-condition).
		return dlx.Integer
	case Add, Sub, Move, Select:
		if in.IntegerTyped {
			return dlx.Integer
		}
		return dlx.Float
	}
	return dlx.Integer
}

// Uses returns the temps read by the instruction.
func (in *Instr) Uses() []int {
	return in.AppendUses(nil)
}

// AppendUses appends the temps read by the instruction to dst and returns
// the extended slice. With a caller-provided buffer (at most 3 entries are
// ever appended) it does not allocate — the hot-path form of Uses.
func (in *Instr) AppendUses(dst []int) []int {
	if in.A.Kind == Temp {
		dst = append(dst, int(in.A.Reg))
	}
	if in.B.Kind == Temp {
		dst = append(dst, int(in.B.Reg))
	}
	if in.C.Kind == Temp {
		dst = append(dst, int(in.C.Reg))
	}
	return dst
}

// IsSync reports whether the instruction is a synchronization operation.
func (in *Instr) IsSync() bool { return in.Op == Send || in.Op == Wait }

// IsMem reports whether the instruction accesses memory.
func (in *Instr) IsMem() bool {
	switch in.Op {
	case Load, Store, LoadS, StoreS:
		return true
	}
	return false
}

// Name returns the name s stands for in the program.
func (p *Program) Name(s Sym) string {
	if s == 0 {
		return ""
	}
	return p.Names[s]
}

// Intern returns the Sym of name, adding it to the name table if it is new.
// Generate fills a program's table as it lowers; Intern is for programs
// assembled by hand.
func (p *Program) Intern(name string) Sym {
	if name == "" {
		return 0
	}
	if len(p.Names) == 0 {
		p.Names = append(p.Names, "")
	}
	for i, n := range p.Names[1:] {
		if n == name {
			return Sym(i + 1)
		}
	}
	p.Names = append(p.Names, name)
	return Sym(len(p.Names) - 1)
}

// ConstOp returns an immediate operand of value v, adding v to the
// constant table if it is new. Generate fills a program's table as it
// lowers; ConstOp is for programs assembled by hand.
func (p *Program) ConstOp(v float64) Operand {
	bits := math.Float64bits(v)
	for i, c := range p.Consts {
		if math.Float64bits(c) == bits {
			return Operand{Kind: Const, Reg: int32(i)}
		}
	}
	p.Consts = append(p.Consts, v)
	return Operand{Kind: Const, Reg: int32(len(p.Consts) - 1)}
}

// Imm returns the value of an immediate operand.
func (p *Program) Imm(o Operand) float64 { return p.Consts[o.Reg] }

// operand renders an operand of the program.
func (p *Program) operand(o Operand) string {
	switch o.Kind {
	case None:
		return "_"
	case Temp:
		return fmt.Sprintf("t%d", o.Reg)
	case IV:
		return "I"
	case Const:
		v := p.Imm(o)
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	return "?"
}

// Format renders an instruction of the program in the paper's Fig. 2
// style.
func (p *Program) Format(in *Instr) string {
	a, b := p.operand(in.A), p.operand(in.B)
	switch in.Op {
	case Load:
		return fmt.Sprintf("t%d <- %s[%s]", in.Dst, p.Name(in.Array), a)
	case Store:
		return fmt.Sprintf("%s[%s] <- %s", p.Name(in.Array), a, b)
	case LoadS:
		return fmt.Sprintf("t%d <- %s", in.Dst, p.Name(in.Array))
	case StoreS:
		return fmt.Sprintf("%s <- %s", p.Name(in.Array), b)
	case Add:
		return fmt.Sprintf("t%d <- %s + %s", in.Dst, a, b)
	case Sub:
		return fmt.Sprintf("t%d <- %s - %s", in.Dst, a, b)
	case Mul:
		return fmt.Sprintf("t%d <- %s * %s", in.Dst, a, b)
	case Div:
		return fmt.Sprintf("t%d <- %s / %s", in.Dst, a, b)
	case Shl:
		return fmt.Sprintf("t%d <- 4 * %s", in.Dst, a)
	case Move:
		return fmt.Sprintf("t%d <- %s", in.Dst, a)
	case Cmp:
		return fmt.Sprintf("t%d <- %s %s %s", in.Dst, a, in.Rel, b)
	case Select:
		return fmt.Sprintf("t%d <- %s ? %s : %s", in.Dst, p.operand(in.C), a, b)
	case Send:
		return fmt.Sprintf("Send_Signal(%s)", p.Name(in.Signal))
	case Wait:
		if in.SigDist == 0 {
			return fmt.Sprintf("Wait_Signal(%s, I)", p.Name(in.Signal))
		}
		return fmt.Sprintf("Wait_Signal(%s, I-%d)", p.Name(in.Signal), in.SigDist)
	}
	return fmt.Sprintf("op%d", int(in.Op))
}

// Listing renders the numbered instruction listing of the program, like
// the paper's Fig. 2.
func (p *Program) Listing() string {
	var sb strings.Builder
	for i := range p.Instrs {
		fmt.Fprintf(&sb, "%3d: %s\n", p.Instrs[i].ID, p.Format(&p.Instrs[i]))
	}
	return sb.String()
}
