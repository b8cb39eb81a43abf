// Package lang implements the miniature FORTRAN-like loop language used as
// the front end of the reproduction: a lexer, parser, AST, pretty-printer,
// and a reference sequential interpreter.
//
// The language covers the loop shapes the paper draws from the Perfect
// benchmarks: singly nested DO / DOACROSS loops over an integer induction
// variable whose bodies are assignment statements mixing array references
// with affine subscripts (A[I-2], E[I+1], ...) and scalar references
// (reductions, induction temporaries).
//
// Grammar (case-insensitive keywords):
//
//	loop    := ("DO" | "DOACROSS") ident "=" expr "," expr stmt* "ENDDO"
//	stmt    := [label ":"] ref "=" expr | sync
//	sync    := "Send_Signal" "(" ident ")" | "Wait_Signal" "(" ident "," expr ")"
//	ref     := ident | ident "[" expr "]" | ident "(" expr ")"
//	expr    := term (("+"|"-") term)*
//	term    := factor (("*"|"/") factor)*
//	factor  := number | ref | "(" expr ")" | "-" factor
//
// Both bracket styles are accepted for array subscripts so that examples can
// be written either in the paper's C-ish style (A[I-2]) or FORTRAN style
// (A(I-2)).
package lang

import (
	"fmt"
	"strconv"

	"doacross/internal/diag"
)

// Expr is an expression node.
type Expr interface {
	// String renders the expression as source text.
	String() string
	exprNode()
}

// Const is an integer or floating literal. All arithmetic in the reference
// interpreter is carried out in float64, matching the paper's FORTRAN data.
type Const struct {
	Value float64
	// Text preserves the literal as written so printing round-trips.
	Text string
}

// Scalar is a reference to a scalar variable (induction variable, reduction
// accumulator, loop-invariant input, ...).
type Scalar struct {
	Name string
}

// ArrayRef is a subscripted array reference such as A[I-2].
type ArrayRef struct {
	Name  string
	Index Expr
}

// BinOp identifies a binary arithmetic operator.
type BinOp int

// Binary operators of the language.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the operator's source spelling.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "BinOp(" + strconv.Itoa(int(op)) + ")"
}

// Binary is a binary arithmetic expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// RelOp identifies a relational operator in an IF guard.
type RelOp uint8

// Relational operators.
const (
	RelLT RelOp = iota
	RelLE
	RelGT
	RelGE
	RelEQ
	RelNE
)

// String returns the operator's source spelling.
func (op RelOp) String() string {
	switch op {
	case RelLT:
		return "<"
	case RelLE:
		return "<="
	case RelGT:
		return ">"
	case RelGE:
		return ">="
	case RelEQ:
		return "=="
	case RelNE:
		return "!="
	}
	return "RelOp(" + strconv.Itoa(int(op)) + ")"
}

// Cond is a relational guard expression (IF (L op R) ...). It is not an
// arithmetic Expr; guards appear only on statements, mirroring the
// if-converted form superscalar schedulers need (no control flow inside the
// loop body).
type Cond struct {
	Op   RelOp
	L, R Expr
}

// String renders the guard.
func (c *Cond) String() string {
	return render(func(b []byte) []byte { return appendCond(b, c) })
}

// Clone deep-copies the guard.
func (c *Cond) Clone() *Cond {
	if c == nil {
		return nil
	}
	return &Cond{Op: c.Op, L: CloneExpr(c.L), R: CloneExpr(c.R)}
}

// Holds evaluates the guard.
func (c *Cond) Holds(st *Store, iv string, i int) (bool, error) {
	l, err := EvalExpr(c.L, st, iv, i)
	if err != nil {
		return false, err
	}
	r, err := EvalExpr(c.R, st, iv, i)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case RelLT:
		return l < r, nil
	case RelLE:
		return l <= r, nil
	case RelGT:
		return l > r, nil
	case RelGE:
		return l >= r, nil
	case RelEQ:
		return l == r, nil
	case RelNE:
		return l != r, nil
	}
	return false, fmt.Errorf("lang: unknown relational operator %d", int(c.Op))
}

// Neg is unary negation.
type Neg struct {
	X Expr
}

func (*Const) exprNode()    {}
func (*Scalar) exprNode()   {}
func (*ArrayRef) exprNode() {}
func (*Binary) exprNode()   {}
func (*Neg) exprNode()      {}

// String renders the literal.
func (c *Const) String() string {
	if c.Text != "" {
		return c.Text
	}
	return render(func(b []byte) []byte { return appendConst(b, c) })
}

// String renders the scalar name.
func (s *Scalar) String() string { return s.Name }

// String renders the array reference with bracket subscripts.
func (a *ArrayRef) String() string { return renderExpr(a) }

// renderExpr renders e through the printer.
func renderExpr(e Expr) string {
	return render(func(b []byte) []byte { return appendExpr(b, e) })
}

// precedence of an expression node, used by the printer to insert the
// minimal parentheses.
func precedence(e Expr) int {
	switch v := e.(type) {
	case *Binary:
		if v.Op == OpAdd || v.Op == OpSub {
			return 1
		}
		return 2
	case *Neg:
		return 3
	default:
		return 4
	}
}

// String renders the binary expression with minimal parentheses.
func (b *Binary) String() string { return renderExpr(b) }

// String renders the negation.
func (n *Neg) String() string { return renderExpr(n) }

// Assign is an assignment statement: [IF (Cond)] LHS = RHS. LHS is either
// *ArrayRef or *Scalar. A non-nil Cond guards the assignment (the paper's
// type-1 "control dependence" DOACROSS loops, in if-converted single-
// statement form).
type Assign struct {
	// Label is the optional statement label (S1, S2, ...). The parser
	// assigns S<k> (1-based textual order) when no label is written, so every
	// statement can be named in diagnostics and synchronization operations.
	Label string
	Cond  *Cond
	LHS   Expr
	RHS   Expr
	// Line and Col locate the statement's first token in the source text
	// (0 for synthesized statements), letting downstream stages (tac,
	// syncop, dep) report diagnostics against the source line.
	Line, Col int
}

// Pos returns the statement's source position.
func (a *Assign) Pos() diag.Pos { return diag.Pos{Line: a.Line, Col: a.Col} }

// String renders the statement without its label.
func (a *Assign) String() string {
	return render(func(b []byte) []byte { return appendAssign(b, a) })
}

// SyncOp is an explicit synchronization statement written in the source:
// Send_Signal(S1) or Wait_Signal(S1, I-2). The compiler inserts its own
// synchronization from the dependence analysis (internal/syncop); explicit
// ops exist so hand-annotated DOACROSS loops can be linted statically
// (internal/check, cmd/schedlint) against what the analysis requires.
type SyncOp struct {
	// Wait distinguishes Wait_Signal from Send_Signal.
	Wait bool
	// Signal names the statement label whose signal is sent or awaited.
	Signal string
	// Dist is the iteration distance of a Wait: Wait_Signal(S, I-d) has
	// Dist d. Sends carry no distance. A non-positive distance is accepted
	// by the parser (Wait_Signal(S, I+1) has Dist -1) so the linter can
	// report it with a source position.
	Dist int
	// At anchors the op before Body[At]; ops after the last statement have
	// At == len(Body).
	At int
	// Line and Col locate the op's first token in the source text.
	Line, Col int
}

// Pos returns the op's source position.
func (o *SyncOp) Pos() diag.Pos { return diag.Pos{Line: o.Line, Col: o.Col} }

// String renders the op; iv is the loop's induction variable (used for the
// Wait distance spelling).
func (o *SyncOp) String(iv string) string {
	return render(func(b []byte) []byte { return appendSyncOp(b, o, iv) })
}

// Loop is a singly nested DO/DOACROSS loop.
type Loop struct {
	// Doacross records whether the loop was written DOACROSS. The dependence
	// analyzer decides the actual classification; this flag only preserves
	// the source spelling.
	Doacross bool
	Var      string
	Lo, Hi   Expr
	Body     []*Assign
	// Syncs holds explicit Send_Signal/Wait_Signal statements in textual
	// order, anchored by SyncOp.At. The compile pipeline ignores them (it
	// derives synchronization from the dependence analysis); they feed the
	// source linter.
	Syncs []*SyncOp
	// Line and Col locate the loop header keyword (0 for synthesized loops).
	Line, Col int
}

// Pos returns the loop header's source position.
func (l *Loop) Pos() diag.Pos { return diag.Pos{Line: l.Line, Col: l.Col} }

// String renders the loop as source text.
func (l *Loop) String() string {
	return render(func(b []byte) []byte { return appendLoop(b, l) })
}

// Stmt returns the statement with the given label, or nil.
func (l *Loop) Stmt(label string) *Assign {
	for _, st := range l.Body {
		if st.Label == label {
			return st
		}
	}
	return nil
}

// StmtIndex returns the 0-based position of the labeled statement, or -1.
func (l *Loop) StmtIndex(label string) int {
	for i, st := range l.Body {
		if st.Label == label {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the loop.
func (l *Loop) Clone() *Loop {
	out := &Loop{Doacross: l.Doacross, Var: l.Var, Lo: CloneExpr(l.Lo), Hi: CloneExpr(l.Hi), Line: l.Line, Col: l.Col}
	for _, st := range l.Body {
		out.Body = append(out.Body, &Assign{
			Label: st.Label, Cond: st.Cond.Clone(),
			LHS: CloneExpr(st.LHS), RHS: CloneExpr(st.RHS),
			Line: st.Line, Col: st.Col,
		})
	}
	for _, o := range l.Syncs {
		cp := *o
		out.Syncs = append(out.Syncs, &cp)
	}
	return out
}

// CloneExpr returns a deep copy of an expression.
func CloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case *Const:
		c := *v
		return &c
	case *Scalar:
		s := *v
		return &s
	case *ArrayRef:
		return &ArrayRef{Name: v.Name, Index: CloneExpr(v.Index)}
	case *Binary:
		return &Binary{Op: v.Op, L: CloneExpr(v.L), R: CloneExpr(v.R)}
	case *Neg:
		return &Neg{X: CloneExpr(v.X)}
	case nil:
		return nil
	}
	panic(fmt.Sprintf("lang: unknown expression type %T", e))
}

// Walk calls fn for every expression node in e, parents before children.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *ArrayRef:
		Walk(v.Index, fn)
	case *Binary:
		Walk(v.L, fn)
		Walk(v.R, fn)
	case *Neg:
		Walk(v.X, fn)
	}
}

// StmtArrayRefs returns every array reference of the statement — guard
// condition operands first, then LHS, then RHS, each left to right. It is
// the single source of truth for "all refs of a statement": subscript-margin
// computation and name collection must not forget the guard reads.
func StmtArrayRefs(st *Assign) []*ArrayRef {
	var out []*ArrayRef
	if st.Cond != nil {
		out = append(out, ArrayRefs(st.Cond.L)...)
		out = append(out, ArrayRefs(st.Cond.R)...)
	}
	out = append(out, ArrayRefs(st.LHS)...)
	return append(out, ArrayRefs(st.RHS)...)
}

// ArrayRefs returns every array reference in e in left-to-right order.
func ArrayRefs(e Expr) []*ArrayRef {
	var out []*ArrayRef
	Walk(e, func(x Expr) {
		if a, ok := x.(*ArrayRef); ok {
			out = append(out, a)
		}
	})
	return out
}

// ScalarRefs returns every scalar reference in e in left-to-right order.
// Subscript expressions are included (the induction variable shows up here).
func ScalarRefs(e Expr) []*Scalar {
	var out []*Scalar
	Walk(e, func(x Expr) {
		if s, ok := x.(*Scalar); ok {
			out = append(out, s)
		}
	})
	return out
}

// AffineIndex tries to reduce an array subscript expression to the affine
// form coef*iv + off with integer coefficients. It reports ok=false for
// subscripts that are not affine in the induction variable (e.g. A[I*I] or
// A[J] with unknown J), which the dependence analyzer treats conservatively.
func AffineIndex(e Expr, iv string) (coef, off int, ok bool) {
	c, o, ok := affine(e, iv)
	return c, o, ok
}

func affine(e Expr, iv string) (coef, off int, ok bool) {
	switch v := e.(type) {
	case *Const:
		if v.Value != float64(int64(v.Value)) {
			return 0, 0, false
		}
		return 0, int(v.Value), true
	case *Scalar:
		if v.Name == iv {
			return 1, 0, true
		}
		return 0, 0, false
	case *Neg:
		c, o, ok := affine(v.X, iv)
		return -c, -o, ok
	case *Binary:
		lc, lo, lok := affine(v.L, iv)
		rc, ro, rok := affine(v.R, iv)
		if !lok || !rok {
			return 0, 0, false
		}
		switch v.Op {
		case OpAdd:
			return lc + rc, lo + ro, true
		case OpSub:
			return lc - rc, lo - ro, true
		case OpMul:
			// Only linear products are affine.
			if lc == 0 {
				return lo * rc, lo * ro, true
			}
			if rc == 0 {
				return lc * ro, lo * ro, true
			}
			return 0, 0, false
		case OpDiv:
			return 0, 0, false
		}
	}
	return 0, 0, false
}
