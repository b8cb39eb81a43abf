package lang

import (
	"fmt"
	"strings"
	"unicode"

	"doacross/internal/diag"
)

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokAssign   // =
	TokPlus     // +
	TokMinus    // -
	TokStar     // *
	TokSlash    // /
	TokComma    // ,
	TokColon    // :
	TokLBracket // [ or (
	TokRBracket // ] or )
	TokNewline  // statement separator
	TokRel      // relational operator: < <= > >= == !=
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokAssign:
		return "'='"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokSlash:
		return "'/'"
	case TokComma:
		return "','"
	case TokColon:
		return "':'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokNewline:
		return "newline"
	case TokRel:
		return "relational operator"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
	// Paren is true for bracket tokens written with parentheses, so the
	// parser can distinguish A(I) from a parenthesized expression when
	// needed. The grammar treats ( and [ uniformly after an identifier.
	Paren bool
}

// Lexer tokenizes loop source text. Newlines are significant (they terminate
// statements); '!' and '//' start comments running to end of line.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// Next returns the next token. Consecutive newlines are collapsed into one
// TokNewline token.
func (lx *Lexer) Next() (Token, error) {
	for {
		// Skip horizontal whitespace and comments.
		for lx.pos < len(lx.src) {
			c := lx.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				lx.advance()
				continue
			}
			// '!' introduces a comment unless it spells the '!=' operator.
			if (c == '!' && lx.peek2() != '=') || (c == '/' && lx.peek2() == '/') {
				for lx.pos < len(lx.src) && lx.peek() != '\n' {
					lx.advance()
				}
				continue
			}
			break
		}
		if lx.pos >= len(lx.src) {
			return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
		}
		line, col := lx.line, lx.col
		c := lx.peek()
		switch {
		case c == '\n' || c == ';':
			for lx.pos < len(lx.src) {
				c = lx.peek()
				if c == '\n' || c == ';' || c == ' ' || c == '\t' || c == '\r' {
					lx.advance()
					continue
				}
				break
			}
			return Token{Kind: TokNewline, Text: "\n", Line: line, Col: col}, nil
		case isIdentStart(c):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
				lx.advance()
			}
			return Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
		case unicode.IsDigit(rune(c)) || (c == '.' && unicode.IsDigit(rune(lx.peek2()))):
			start := lx.pos
			seenDot := false
			for lx.pos < len(lx.src) {
				c = lx.peek()
				if unicode.IsDigit(rune(c)) {
					lx.advance()
					continue
				}
				if c == '.' && !seenDot {
					seenDot = true
					lx.advance()
					continue
				}
				break
			}
			return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
		default:
			lx.advance()
			switch c {
			case '=':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "==", Line: line, Col: col}, nil
				}
				return Token{Kind: TokAssign, Text: "=", Line: line, Col: col}, nil
			case '<':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "<=", Line: line, Col: col}, nil
				}
				return Token{Kind: TokRel, Text: "<", Line: line, Col: col}, nil
			case '>':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: ">=", Line: line, Col: col}, nil
				}
				return Token{Kind: TokRel, Text: ">", Line: line, Col: col}, nil
			case '!':
				if lx.peek() == '=' {
					lx.advance()
					return Token{Kind: TokRel, Text: "!=", Line: line, Col: col}, nil
				}
				return Token{}, diag.Errorf("lang", diag.Pos{Line: line, Col: col}, "unexpected '!'")
			case '+':
				return Token{Kind: TokPlus, Text: "+", Line: line, Col: col}, nil
			case '-':
				return Token{Kind: TokMinus, Text: "-", Line: line, Col: col}, nil
			case '*':
				return Token{Kind: TokStar, Text: "*", Line: line, Col: col}, nil
			case '/':
				return Token{Kind: TokSlash, Text: "/", Line: line, Col: col}, nil
			case ',':
				return Token{Kind: TokComma, Text: ",", Line: line, Col: col}, nil
			case ':':
				return Token{Kind: TokColon, Text: ":", Line: line, Col: col}, nil
			case '[':
				return Token{Kind: TokLBracket, Text: "[", Line: line, Col: col}, nil
			case ']':
				return Token{Kind: TokRBracket, Text: "]", Line: line, Col: col}, nil
			case '(':
				return Token{Kind: TokLBracket, Text: "(", Line: line, Col: col, Paren: true}, nil
			case ')':
				return Token{Kind: TokRBracket, Text: ")", Line: line, Col: col, Paren: true}, nil
			}
			return Token{}, diag.Errorf("lang", diag.Pos{Line: line, Col: col}, "unexpected character %q", string(rune(c)))
		}
	}
}

// Tokenize returns all tokens of src, ending with TokEOF.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Loop source is dense: the Perfect suites and loopgen loops average
	// 1.32-1.40 bytes per token (EOF included), and their densest loop has
	// 1.31. Sizing for 1.2 bytes per token keeps every such parse to one
	// backing array, never grown and copied; commented files (the kernel
	// corpus averages 2.58) over-allocate instead.
	out := make([]Token, 0, len(src)*5/6+4)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// keywordOf reports the canonical keyword for an identifier, or "".
func keywordOf(ident string) string {
	up := strings.ToUpper(ident)
	switch up {
	case "DO", "DOACROSS", "ENDDO", "END_DOACROSS", "IF":
		return up
	}
	return ""
}
