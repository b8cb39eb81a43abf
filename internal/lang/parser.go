package lang

import (
	"fmt"
	"strconv"
	"strings"

	"doacross/internal/diag"
)

// ParseError is the structured syntax-error type: a diag.Diagnostic whose
// Stage is "lang" and whose Pos locates the offending token. The rendered
// form is unchanged ("lang: line 3 col 7: ...").
type ParseError = diag.Diagnostic

type parser struct {
	toks []Token
	pos  int
	// AST nodes come from pointer-stable slabs: node identity (e.g.
	// *ArrayRef as a map key in dep and tac) needs distinct stable
	// addresses, which fixed-capacity chunks provide without one heap
	// object per node. presize gives every loop fresh slabs sized from its
	// own tokens, so a cached loop keeps no storage of its file siblings.
	binarys slab[Binary]
	refs    slab[ArrayRef]
	scalars slab[Scalar]
	consts  slab[Const]
	negs    slab[Neg]
	assigns slab[Assign]
}

// slab hands out pointer-stable T storage in fixed-capacity chunks (a
// chunk's backing array never reallocates, and the nodes handed out keep
// it alive). The first chunk holds first nodes, later ones slabChunk.
type slab[T any] struct {
	cur   []T
	first int
}

const slabChunk = 32

func (s *slab[T]) alloc() *T {
	if len(s.cur) == cap(s.cur) {
		size := slabChunk
		if s.cur == nil && s.first > 0 {
			size = s.first
		}
		s.cur = make([]T, 0, size)
	}
	var zero T
	s.cur = append(s.cur, zero)
	return &s.cur[len(s.cur)-1]
}

// presize gives the loop starting at the current token fresh slabs, each
// first chunk sized from the loop's own tokens (up to its ENDDO): an
// assignment per '=' after the header's, a constant per number, an array
// reference per name followed by a bracket, a scalar per other name but the
// induction variable, and a negation per '-' that cannot end a binary
// operand, every other operator being a binary node. Statement labels and
// keywords are not nodes; the signal name of an explicit Send_Signal or
// Wait_Signal counts as a scalar it does not make.
func (p *parser) presize() {
	var binarys, refs, scalars, consts, negs, assigns int
	prev := TokNewline
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.Kind == TokEOF || t.Kind == TokIdent && isLoopEnd(t.Text) {
			break
		}
		switch t.Kind {
		case TokIdent:
			switch next := p.toks[i+1].Kind; {
			case isKeyword(t.Text) || next == TokColon || isSyncIdent(t.Text) && next == TokLBracket:
			case next == TokLBracket:
				refs++
			default:
				scalars++
			}
		case TokNumber:
			consts++
		case TokAssign:
			assigns++
		case TokPlus, TokStar, TokSlash:
			binarys++
		case TokMinus:
			if prev == TokIdent || prev == TokNumber || prev == TokRBracket {
				binarys++
			} else {
				negs++
			}
		}
		prev = t.Kind
	}
	p.binarys = slab[Binary]{first: binarys}
	p.refs = slab[ArrayRef]{first: refs}
	p.scalars = slab[Scalar]{first: scalars - 1}
	p.consts = slab[Const]{first: consts}
	p.negs = slab[Neg]{first: negs}
	p.assigns = slab[Assign]{first: assigns - 1}
}

func (p *parser) newBinary(op BinOp, l, r Expr) *Binary {
	b := p.binarys.alloc()
	b.Op, b.L, b.R = op, l, r
	return b
}

// Parse parses a single DO/DOACROSS loop from src. Statements without an
// explicit label get S<k> labels in textual order (matching the paper's
// S1..S3 convention).
func Parse(src string) (*Loop, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	p.skipNewlines()
	loop, err := p.parseLoop()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if t := p.peek(); t.Kind != TokEOF {
		return nil, p.errorf(t, "unexpected %s after ENDDO", t.Kind)
	}
	return loop, nil
}

// MustParse parses src and panics on error. Intended for tests and for
// compile-time-constant loop literals in examples.
func MustParse(src string) *Loop {
	l, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return l
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peekN(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t Token, format string, args ...any) error {
	return diag.Errorf("lang", diag.Pos{Line: t.Line, Col: t.Col}, format, args...)
}

func (p *parser) expect(k TokenKind) (Token, error) {
	t := p.next()
	if t.Kind != k {
		return t, p.errorf(t, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return t, nil
}

func (p *parser) skipNewlines() {
	for p.peek().Kind == TokNewline {
		p.next()
	}
}

func (p *parser) parseLoop() (*Loop, error) {
	p.presize()
	kw := p.next()
	if kw.Kind != TokIdent {
		return nil, p.errorf(kw, "expected DO or DOACROSS, found %s %q", kw.Kind, kw.Text)
	}
	var doacross bool
	switch keywordOf(kw.Text) {
	case "DO":
	case "DOACROSS":
		doacross = true
	default:
		return nil, p.errorf(kw, "expected DO or DOACROSS, found %q", kw.Text)
	}
	ivTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if keywordOf(ivTok.Text) != "" {
		return nil, p.errorf(ivTok, "keyword %q cannot be an induction variable", ivTok.Text)
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind != TokNewline && t.Kind != TokEOF {
		return nil, p.errorf(t, "expected end of line after loop header, found %s %q", t.Kind, t.Text)
	}
	loop := &Loop{Doacross: doacross, Var: ivTok.Text, Lo: lo, Hi: hi, Line: kw.Line, Col: kw.Col}
	if n := p.assigns.first; n > 0 {
		loop.Body = make([]*Assign, 0, n)
	}
	used := map[string]bool{}
	for {
		p.skipNewlines()
		t := p.peek()
		if t.Kind == TokEOF {
			return nil, p.errorf(t, "missing ENDDO")
		}
		if t.Kind == TokIdent {
			switch keywordOf(t.Text) {
			case "ENDDO", "END_DOACROSS":
				p.next()
				p.normalizeLabels(loop, used)
				return loop, nil
			case "DO", "DOACROSS":
				return nil, p.errorf(t, "nested loops are not supported by this subset")
			}
		}
		if t.Kind == TokIdent && isSyncIdent(t.Text) && p.peekN(1).Kind == TokLBracket && p.peekN(1).Paren {
			op, err := p.parseSync(loop)
			if err != nil {
				return nil, err
			}
			loop.Syncs = append(loop.Syncs, op)
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if st.Label != "" {
			if used[st.Label] {
				return nil, p.errorf(t, "duplicate statement label %q", st.Label)
			}
			used[st.Label] = true
		}
		loop.Body = append(loop.Body, st)
	}
}

// normalizeLabels assigns S<k> to unlabeled statements, skipping labels that
// were used explicitly.
func (p *parser) normalizeLabels(loop *Loop, used map[string]bool) {
	k := 1
	for _, st := range loop.Body {
		if st.Label != "" {
			continue
		}
		for {
			cand := fmt.Sprintf("S%d", k)
			k++
			if !used[cand] {
				st.Label = cand
				used[cand] = true
				break
			}
		}
	}
}

// isSyncIdent reports whether ident spells an explicit synchronization
// statement. Like keywords, the spelling is case-insensitive; unlike
// keywords, the ident only acts as a statement when followed by '(' at
// statement head, so variables of the same name stay usable in expressions.
func isSyncIdent(ident string) bool {
	return strings.EqualFold(ident, "Send_Signal") || strings.EqualFold(ident, "Wait_Signal")
}

// parseSync parses an explicit synchronization statement:
//
//	Send_Signal(label)
//	Wait_Signal(label, iv-d)
//
// The Wait iteration expression must be affine in the loop's induction
// variable with coefficient 1; its constant offset becomes -Dist.
func (p *parser) parseSync(loop *Loop) (*SyncOp, error) {
	kw := p.next()
	op := &SyncOp{Wait: strings.EqualFold(kw.Text, "Wait_Signal"), At: len(loop.Body), Line: kw.Line, Col: kw.Col}
	if _, err := p.expect(TokLBracket); err != nil {
		return nil, err
	}
	sig, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if keywordOf(sig.Text) != "" {
		return nil, p.errorf(sig, "keyword %q cannot be a signal label", sig.Text)
	}
	op.Signal = sig.Text
	if op.Wait {
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		it, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		coef, off, ok := AffineIndex(it, loop.Var)
		if !ok || coef != 1 {
			return nil, p.errorf(kw, "Wait_Signal iteration must be %s, %s-d or %s+d", loop.Var, loop.Var, loop.Var)
		}
		op.Dist = -off
	}
	cl, err := p.expect(TokRBracket)
	if err != nil {
		return nil, err
	}
	if !cl.Paren {
		return nil, p.errorf(cl, "mismatched ')' and ']'")
	}
	if t := p.peek(); t.Kind != TokNewline && t.Kind != TokEOF {
		return nil, p.errorf(t, "expected end of statement, found %s %q", t.Kind, t.Text)
	}
	return op, nil
}

func (p *parser) parseStmt() (*Assign, error) {
	label := ""
	first := p.peek()
	// Optional label: IDENT ':'.
	if p.peek().Kind == TokIdent && p.peekN(1).Kind == TokColon {
		label = p.next().Text
		p.next() // colon
	}
	// Optional guard: IF ( expr relop expr ).
	var cond *Cond
	if t := p.peek(); t.Kind == TokIdent && keywordOf(t.Text) == "IF" {
		p.next()
		open, err := p.expect(TokLBracket)
		if err != nil {
			return nil, err
		}
		if !open.Paren {
			return nil, p.errorf(open, "IF guard requires parentheses")
		}
		cond, err = p.parseCond()
		if err != nil {
			return nil, err
		}
		cl, err := p.expect(TokRBracket)
		if err != nil {
			return nil, err
		}
		if !cl.Paren {
			return nil, p.errorf(cl, "IF guard requires parentheses")
		}
	}
	lhs, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind != TokNewline && t.Kind != TokEOF {
		return nil, p.errorf(t, "expected end of statement, found %s %q", t.Kind, t.Text)
	}
	st := p.assigns.alloc()
	*st = Assign{Label: label, Cond: cond, LHS: lhs, RHS: rhs, Line: first.Line, Col: first.Col}
	return st, nil
}

// parseCond parses the relational guard body: expr relop expr.
func (p *parser) parseCond() (*Cond, error) {
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	rel, err := p.expect(TokRel)
	if err != nil {
		return nil, err
	}
	var op RelOp
	switch rel.Text {
	case "<":
		op = RelLT
	case "<=":
		op = RelLE
	case ">":
		op = RelGT
	case ">=":
		op = RelGE
	case "==":
		op = RelEQ
	case "!=":
		op = RelNE
	default:
		return nil, p.errorf(rel, "unknown relational operator %q", rel.Text)
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{Op: op, L: l, R: r}, nil
}

// parseRef parses an assignable reference: a scalar or a subscripted array.
func (p *parser) parseRef() (Expr, error) {
	id, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if keywordOf(id.Text) != "" {
		return nil, p.errorf(id, "keyword %q cannot be a variable", id.Text)
	}
	if p.peek().Kind == TokLBracket {
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		a := p.refs.alloc()
		a.Name, a.Index = id.Text, idx
		return a, nil
	}
	sc := p.scalars.alloc()
	sc.Name = id.Text
	return sc, nil
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Kind {
		case TokPlus:
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = p.newBinary(OpAdd, left, right)
		case TokMinus:
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = p.newBinary(OpSub, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Kind {
		case TokStar:
			p.next()
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = p.newBinary(OpMul, left, right)
		case TokSlash:
			p.next()
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = p.newBinary(OpDiv, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokMinus:
		p.next()
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		n := p.negs.alloc()
		n.X = x
		return n, nil
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf(t, "bad number %q: %v", t.Text, err)
		}
		c := p.consts.alloc()
		c.Value, c.Text = v, canonicalNumber(t.Text)
		return c, nil
	case TokIdent:
		if keywordOf(t.Text) != "" {
			return nil, p.errorf(t, "keyword %q cannot appear in an expression", t.Text)
		}
		return p.parseRef()
	case TokLBracket:
		// Parenthesized sub-expression. Only the '(' spelling is allowed
		// here; '[' is reserved for subscripts.
		if !t.Paren {
			return nil, p.errorf(t, "'[' is only valid as an array subscript")
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cl, err := p.expect(TokRBracket)
		if err != nil {
			return nil, err
		}
		if !cl.Paren {
			return nil, p.errorf(cl, "mismatched ')' and ']'")
		}
		return e, nil
	}
	return nil, p.errorf(t, "expected expression, found %s %q", t.Kind, t.Text)
}

// canonicalNumber strips redundant leading zeros so printing round-trips
// through the lexer stably.
func canonicalNumber(s string) string {
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimSuffix(s, ".")
		if s == "" {
			s = "0"
		}
		return s
	}
	trimmed := strings.TrimLeft(s, "0")
	if trimmed == "" {
		return "0"
	}
	return trimmed
}
