package lang

import (
	"strconv"
	"sync"
)

// The printer renders the AST as source text. Every String method of the
// AST delegates to these append functions, so a loop prints by one set of
// rules, and it uses no fmt: rendering a parsed loop to key a cache is
// one allocation, the returned string, whatever the loop's size.

// bufPool recycles the printer's buffers between String calls.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// render returns the text appendTo appends to an empty buffer, built in a
// pooled buffer so that the returned string is the only allocation.
func render(appendTo func([]byte) []byte) string {
	bp := bufPool.Get().(*[]byte)
	b := appendTo((*bp)[:0])
	s := string(b)
	*bp = b
	bufPool.Put(bp)
	return s
}

// appendExpr appends e's source text with the minimal parentheses.
func appendExpr(b []byte, e Expr) []byte {
	switch v := e.(type) {
	case *Const:
		return appendConst(b, v)
	case *Scalar:
		return append(b, v.Name...)
	case *ArrayRef:
		b = append(b, v.Name...)
		b = append(b, '[')
		b = appendExpr(b, v.Index)
		return append(b, ']')
	case *Binary:
		// For left-associative operators the right operand needs parens
		// when it binds at the same or lower level (a-(b+c), a/(b*c)).
		p := precedence(v)
		b = appendOperand(b, v.L, precedence(v.L) < p)
		b = append(b, v.Op.String()...)
		return appendOperand(b, v.R, precedence(v.R) <= p)
	case *Neg:
		b = append(b, '-')
		return appendOperand(b, v.X, precedence(v.X) < precedence(v))
	case nil:
		return append(b, "<nil>"...)
	}
	panic("lang: printer has no case for an expression type")
}

// appendOperand appends e, parenthesized when paren is set.
func appendOperand(b []byte, e Expr, paren bool) []byte {
	if !paren {
		return appendExpr(b, e)
	}
	b = append(b, '(')
	b = appendExpr(b, e)
	return append(b, ')')
}

// appendConst appends the literal as written, or else its value: integral
// values in decimal, others in the shortest form that reads back exactly.
func appendConst(b []byte, c *Const) []byte {
	if c.Text != "" {
		return append(b, c.Text...)
	}
	if c.Value == float64(int64(c.Value)) {
		return strconv.AppendInt(b, int64(c.Value), 10)
	}
	return strconv.AppendFloat(b, c.Value, 'g', -1, 64)
}

// appendCond appends the guard L op R.
func appendCond(b []byte, c *Cond) []byte {
	b = appendExpr(b, c.L)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	return appendExpr(b, c.R)
}

// appendAssign appends the statement without its label.
func appendAssign(b []byte, a *Assign) []byte {
	if a.Cond != nil {
		b = append(b, "IF ("...)
		b = appendCond(b, a.Cond)
		b = append(b, ") "...)
	}
	b = appendExpr(b, a.LHS)
	b = append(b, " = "...)
	return appendExpr(b, a.RHS)
}

// appendSyncOp appends the op, spelling a Wait's distance against the
// induction variable iv.
func appendSyncOp(b []byte, o *SyncOp, iv string) []byte {
	if !o.Wait {
		b = append(b, "Send_Signal("...)
		b = append(b, o.Signal...)
		return append(b, ')')
	}
	b = append(b, "Wait_Signal("...)
	b = append(b, o.Signal...)
	b = append(b, ", "...)
	b = append(b, iv...)
	switch {
	case o.Dist > 0:
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(o.Dist), 10)
	case o.Dist < 0:
		b = append(b, '+')
		b = strconv.AppendInt(b, int64(-o.Dist), 10)
	}
	return append(b, ')')
}

// appendLoop appends the loop: its header, each statement on its own
// labeled line with the explicit synchronization ops anchored before it,
// the ops after the last statement, and ENDDO.
func appendLoop(b []byte, l *Loop) []byte {
	if l.Doacross {
		b = append(b, "DOACROSS "...)
	} else {
		b = append(b, "DO "...)
	}
	b = append(b, l.Var...)
	b = append(b, " = "...)
	b = appendExpr(b, l.Lo)
	b = append(b, ", "...)
	b = appendExpr(b, l.Hi)
	b = append(b, '\n')
	syncs := 0
	emit := func(b []byte, anchor int) []byte {
		for ; syncs < len(l.Syncs) && l.Syncs[syncs].At <= anchor; syncs++ {
			b = append(b, "  "...)
			b = appendSyncOp(b, l.Syncs[syncs], l.Var)
			b = append(b, '\n')
		}
		return b
	}
	for k, st := range l.Body {
		b = emit(b, k)
		b = append(b, "  "...)
		b = append(b, st.Label...)
		b = append(b, ": "...)
		b = appendAssign(b, st)
		b = append(b, '\n')
	}
	b = emit(b, len(l.Body))
	return append(b, "ENDDO\n"...)
}
