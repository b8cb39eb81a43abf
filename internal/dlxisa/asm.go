package dlxisa

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"doacross/internal/tac"
)

// Program is an assembled loop body: machine instructions with physical
// registers, the memory layout, and the encoded words.
type Program struct {
	TAC    *tac.Program
	Layout *Layout
	// Insts is the straight-line body of one iteration.
	Insts []Inst
	// Words is the binary encoding of Insts.
	Words []uint32
	// Signals maps signal id -> signal (source statement) name.
	Signals []string
	// NumSpills is the number of spill slots used by register allocation.
	NumSpills int
}

// regClass partitions virtual registers.
type regClass int

const (
	intReg regClass = iota
	fpReg
)

// vreg is a virtual register id (per class).
type vreg struct {
	class regClass
	id    int
}

// virtual instruction: an Inst whose register fields hold vreg ids instead
// of physical numbers, plus late-patched address info.
type vinst struct {
	op             Op
	rd, s1, s2, s3 int // vreg ids (-1 = unused); for int fields of fp ops see class tables below
	imm            int32
	// addr describes how imm must be patched after layout:
	// "": literal imm; "array:NAME": array base; "scalar:NAME": scalar
	// address; "pool": pool address of constVal; "spill": spill slot base.
	addr     string
	constVal float64
	slot     int
}

// classes of the register fields per opcode (dest, s1, s2, s3).
func fieldClasses(op Op) (d, a, b, c regClass, hasD, hasA, hasB, hasC bool) {
	switch op {
	case ADD, SUB, MUL, DIV:
		return intReg, intReg, intReg, 0, true, true, true, false
	case ADDI, SLLI:
		return intReg, intReg, 0, 0, true, true, false, false
	case LD:
		return fpReg, intReg, 0, 0, true, true, false, false
	case SD:
		return 0, intReg, fpReg, 0, false, true, true, false
	case LWI:
		return intReg, intReg, 0, 0, true, true, false, false
	case SWI:
		return 0, intReg, intReg, 0, false, true, true, false
	case ADDD, SUBD, MULTD, DIVD:
		return fpReg, fpReg, fpReg, 0, true, true, true, false
	case CVTI2D:
		return fpReg, intReg, 0, 0, true, true, false, false
	case CVTD2I:
		return intReg, fpReg, 0, 0, true, true, false, false
	case CLTD, CLED, CGTD, CGED, CEQD, CNED:
		return intReg, fpReg, fpReg, 0, true, true, true, false
	case CMOVD:
		return fpReg, fpReg, fpReg, intReg, true, true, true, true
	case WAITS:
		return 0, 0, 0, 0, false, false, false, false
	}
	return 0, 0, 0, 0, false, false, false, false
}

// asm is the instruction-selection and allocation state.
type asm struct {
	prog    *tac.Program
	vinsts  []vinst
	nextVR  [2]int
	tempVR  map[int]vreg // TAC temp -> vreg
	consts  map[float64]bool
	signals []string
	sigID   map[string]int
}

// ivVreg is the pinned virtual register holding the induction variable
// (int class, id 0, mapped to R1).
const ivID = 0

func (a *asm) newVR(c regClass) vreg {
	a.nextVR[c]++
	return vreg{class: c, id: a.nextVR[c]}
}

func (a *asm) emit(v vinst) int {
	a.vinsts = append(a.vinsts, v)
	return len(a.vinsts) - 1
}

// asInt returns a vreg id holding the operand as an integer, emitting
// conversion/materialization code as needed.
func (a *asm) asInt(o tac.Operand) (int, error) {
	switch o.Kind {
	case tac.Temp:
		vr, ok := a.tempVR[int(o.Reg)]
		if !ok {
			return 0, fmt.Errorf("dlxisa: use of unassigned temp t%d", o.Reg)
		}
		if vr.class == intReg {
			return vr.id, nil
		}
		nv := a.newVR(intReg)
		a.emit(vinst{op: CVTD2I, rd: nv.id, s1: vr.id})
		return nv.id, nil
	case tac.IV:
		return ivID, nil
	case tac.Const:
		v := a.prog.Imm(o)
		if v != math.Trunc(v) || v > 32000 || v < -32000 {
			return 0, fmt.Errorf("dlxisa: integer immediate %v out of range", v)
		}
		nv := a.newVR(intReg)
		a.emit(vinst{op: ADDI, rd: nv.id, s1: -1, imm: int32(v)}) // s1=-1 means R0
		return nv.id, nil
	}
	return 0, fmt.Errorf("dlxisa: bad operand")
}

// asFP returns a vreg id holding the operand as a float.
func (a *asm) asFP(o tac.Operand) (int, error) {
	switch o.Kind {
	case tac.Temp:
		vr, ok := a.tempVR[int(o.Reg)]
		if !ok {
			return 0, fmt.Errorf("dlxisa: use of unassigned temp t%d", o.Reg)
		}
		if vr.class == fpReg {
			return vr.id, nil
		}
		nv := a.newVR(fpReg)
		a.emit(vinst{op: CVTI2D, rd: nv.id, s1: vr.id})
		return nv.id, nil
	case tac.IV:
		nv := a.newVR(fpReg)
		a.emit(vinst{op: CVTI2D, rd: nv.id, s1: ivID})
		return nv.id, nil
	case tac.Const:
		v := a.prog.Imm(o)
		a.consts[v] = true
		nv := a.newVR(fpReg)
		a.emit(vinst{op: LD, rd: nv.id, s1: -1, addr: "pool", constVal: v})
		return nv.id, nil
	}
	return 0, fmt.Errorf("dlxisa: bad operand")
}

// defTemp binds a TAC temp to a fresh vreg of the given class.
func (a *asm) defTemp(t int, c regClass) int {
	vr := a.newVR(c)
	a.tempVR[t] = vr
	return vr.id
}

// selectInstr lowers one TAC instruction.
func (a *asm) selectInstr(in *tac.Instr) error {
	switch in.Op {
	case tac.Shl:
		s, err := a.asInt(in.A)
		if err != nil {
			return err
		}
		a.emit(vinst{op: SLLI, rd: a.defTemp(int(in.Dst), intReg), s1: s, imm: 2})
	case tac.Add, tac.Sub:
		if in.IntegerTyped {
			// Fold a constant right operand into ADDI.
			if b := in.B; b.Kind == tac.Const && a.prog.Imm(b) == math.Trunc(a.prog.Imm(b)) &&
				a.prog.Imm(b) < 32000 && a.prog.Imm(b) > -32000 {
				s, err := a.asInt(in.A)
				if err != nil {
					return err
				}
				imm := int32(a.prog.Imm(b))
				if in.Op == tac.Sub {
					imm = -imm
				}
				a.emit(vinst{op: ADDI, rd: a.defTemp(int(in.Dst), intReg), s1: s, imm: imm})
				return nil
			}
			s1, err := a.asInt(in.A)
			if err != nil {
				return err
			}
			s2, err := a.asInt(in.B)
			if err != nil {
				return err
			}
			op := ADD
			if in.Op == tac.Sub {
				op = SUB
			}
			a.emit(vinst{op: op, rd: a.defTemp(int(in.Dst), intReg), s1: s1, s2: s2})
			return nil
		}
		s1, err := a.asFP(in.A)
		if err != nil {
			return err
		}
		s2, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		op := ADDD
		if in.Op == tac.Sub {
			op = SUBD
		}
		a.emit(vinst{op: op, rd: a.defTemp(int(in.Dst), fpReg), s1: s1, s2: s2})
	case tac.Mul, tac.Div:
		s1, err := a.asFP(in.A)
		if err != nil {
			return err
		}
		s2, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		op := MULTD
		if in.Op == tac.Div {
			op = DIVD
		}
		a.emit(vinst{op: op, rd: a.defTemp(int(in.Dst), fpReg), s1: s1, s2: s2})
	case tac.Move:
		if in.IntegerTyped {
			s, err := a.asInt(in.A)
			if err != nil {
				return err
			}
			a.emit(vinst{op: ADDI, rd: a.defTemp(int(in.Dst), intReg), s1: s, imm: 0})
			return nil
		}
		// FP move: fd = fs + 0.0 via the pool zero.
		s, err := a.asFP(in.A)
		if err != nil {
			return err
		}
		a.consts[0] = true
		z := a.newVR(fpReg)
		a.emit(vinst{op: LD, rd: z.id, s1: -1, addr: "pool", constVal: 0})
		a.emit(vinst{op: ADDD, rd: a.defTemp(int(in.Dst), fpReg), s1: s, s2: z.id})
	case tac.Load:
		addr, err := a.asInt(in.A)
		if err != nil {
			return err
		}
		a.emit(vinst{op: LD, rd: a.defTemp(int(in.Dst), fpReg), s1: addr, addr: "array:" + a.prog.Name(in.Array)})
	case tac.Store:
		addr, err := a.asInt(in.A)
		if err != nil {
			return err
		}
		val, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		a.emit(vinst{op: SD, s1: addr, s2: val, addr: "array:" + a.prog.Name(in.Array)})
	case tac.LoadS:
		a.emit(vinst{op: LD, rd: a.defTemp(int(in.Dst), fpReg), s1: -1, addr: "scalar:" + a.prog.Name(in.Array)})
	case tac.StoreS:
		val, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		a.emit(vinst{op: SD, s1: -1, s2: val, addr: "scalar:" + a.prog.Name(in.Array)})
	case tac.Cmp:
		s1, err := a.asFP(in.A)
		if err != nil {
			return err
		}
		s2, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		a.emit(vinst{op: CmpOf(in.Rel), rd: a.defTemp(int(in.Dst), intReg), s1: s1, s2: s2})
	case tac.Select:
		cnd, err := a.asInt(in.C)
		if err != nil {
			return err
		}
		s1, err := a.asFP(in.A)
		if err != nil {
			return err
		}
		s2, err := a.asFP(in.B)
		if err != nil {
			return err
		}
		a.emit(vinst{op: CMOVD, rd: a.defTemp(int(in.Dst), fpReg), s1: s1, s2: s2, s3: cnd})
	case tac.Send:
		a.emit(vinst{op: SENDS, imm: int32(a.signalID(a.prog.Name(in.Signal)))})
	case tac.Wait:
		a.emit(vinst{op: WAITS, rd: a.signalID(a.prog.Name(in.Signal)), imm: int32(in.SigDist)})
	default:
		return fmt.Errorf("dlxisa: cannot select %s", a.prog.Format(in))
	}
	return nil
}

func (a *asm) signalID(name string) int {
	if id, ok := a.sigID[name]; ok {
		return id
	}
	id := len(a.signals)
	a.signals = append(a.signals, name)
	a.sigID[name] = id
	return id
}

// Assemble compiles a TAC program to machine code. minIdx/maxIdx bound the
// array subscripts the generated code may touch at run time.
func Assemble(p *tac.Program, minIdx, maxIdx int) (*Program, error) {
	a := &asm{
		prog:   p,
		tempVR: map[int]vreg{},
		consts: map[float64]bool{},
		sigID:  map[string]int{},
	}
	for i := range p.Instrs {
		if err := a.selectInstr(&p.Instrs[i]); err != nil {
			return nil, err
		}
	}
	consts := make([]float64, 0, len(a.consts))
	for c := range a.consts {
		consts = append(consts, c)
	}
	sort.Float64s(consts)

	alloc, spills, err := allocate(a.vinsts, a.nextVR)
	if err != nil {
		return nil, err
	}
	layout, err := NewLayout(p.Sync.Base, minIdx, maxIdx, consts, spills)
	if err != nil {
		return nil, err
	}
	insts, err := patch(alloc, layout)
	if err != nil {
		return nil, err
	}
	words, err := EncodeAll(insts)
	if err != nil {
		return nil, err
	}
	return &Program{
		TAC:       p,
		Layout:    layout,
		Insts:     insts,
		Words:     words,
		Signals:   a.signals,
		NumSpills: spills,
	}, nil
}

// patch resolves symbolic addresses to layout immediates.
func patch(vs []vinst, l *Layout) ([]Inst, error) {
	out := make([]Inst, len(vs))
	for i, v := range vs {
		imm := v.imm
		switch {
		case v.addr == "":
		case v.addr == "pool":
			imm += int32(l.Pool[v.constVal])
		case v.addr == "spill":
			imm = l.SpillBase + 4*int32(v.slot)
		case strings.HasPrefix(v.addr, "array:"):
			base, ok := l.ArrayBase[v.addr[6:]]
			if !ok {
				return nil, fmt.Errorf("dlxisa: unknown array %q", v.addr[6:])
			}
			imm += base
		case strings.HasPrefix(v.addr, "scalar:"):
			addr, ok := l.ScalarAddr[v.addr[7:]]
			if !ok {
				return nil, fmt.Errorf("dlxisa: unknown scalar %q", v.addr[7:])
			}
			imm += addr
		default:
			return nil, fmt.Errorf("dlxisa: bad address kind %q", v.addr)
		}
		if imm > 32767 || imm < -32768 {
			return nil, fmt.Errorf("dlxisa: immediate %d overflows 16 bits", imm)
		}
		out[i] = Inst{
			Op:  v.op,
			Rd:  uint8(v.rd),
			Rs1: uint8(v.s1),
			Rs2: uint8(v.s2),
			Rs3: uint8(v.s3),
			Imm: int16(imm),
		}
	}
	return out, nil
}

// Listing renders the assembled body.
func (p *Program) Listing() string {
	var sb strings.Builder
	for i, in := range p.Insts {
		fmt.Fprintf(&sb, "%4d: %08x  %s\n", i, p.Words[i], in)
	}
	return sb.String()
}

// Signal name for an id.
func (p *Program) Signal(id int) string {
	if id < 0 || id >= len(p.Signals) {
		return fmt.Sprintf("sig%d", id)
	}
	return p.Signals[id]
}
