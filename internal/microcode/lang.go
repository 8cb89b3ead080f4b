package microcode

import (
	"fmt"
	"strconv"
	"strings"
)

// µC is the tiny C-like language instruction semantics are written in.
// A specification is a sequence of ';'-separated statements:
//
//	rd = rd + rs; cc(rd)                     // add
//	t0 = agen(rs, disp); rd = load32(t0)     // ldw
//	store32(agen(rs, disp), rd)              // stw
//	sp = sp - 4; store32(sp, rd)             // push
//	pc = jump()                              // control transfer
//
// Terms: rd rs fd fs sp lr pc, temporaries t0..t15, integer literals, and
// the instruction fields imm / disp. Operators: + - & | ^ << >> >>> * / %
// with C-like precedence, unary - and ~. Intrinsics — loads and stores,
// agen, cc, cmp, jumps, FP operations, system operations and port I/O — are
// the rows of the intrinsics table in compile.go: each names the µop kind a
// call compiles to, its operand shape, and when it gets a destination.
//
// The compiler allocates temporaries, folds condition-code updates into the
// producing µop, propagates copies, and eliminates dead temporaries — the
// "fairly optimized microcode" of §4.3.

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // = ; , ( )
	tokOp    // + - & | ^ << >> >>> * / % ~
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isAlpha(c):
			start := l.pos
			for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos], start)
		case isDigit(c):
			start := l.pos
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || isAlpha(l.src[l.pos])) {
				l.pos++ // hex digits and 0x prefix land here; ParseInt validates
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case strings.ContainsRune("=;,()", rune(c)):
			l.emit(tokPunct, string(c), l.pos)
			l.pos++
		case strings.ContainsRune("+-&|^*/%~<>", rune(c)):
			start := l.pos
			switch {
			case strings.HasPrefix(l.src[l.pos:], ">>>"):
				l.pos += 3
			case strings.HasPrefix(l.src[l.pos:], ">>") || strings.HasPrefix(l.src[l.pos:], "<<"):
				l.pos += 2
			default:
				l.pos++
			}
			l.emit(tokOp, l.src[start:l.pos], start)
		default:
			return nil, fmt.Errorf("µC: bad character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// AST.

type expr interface{ isExpr() }

type termExpr struct{ name string } // rd, rs, sp, t0, imm, disp, pc, ...
type numExpr struct{ val int64 }
type binExpr struct {
	op   string
	l, r expr
}
type unExpr struct {
	op string
	x  expr
}
type callExpr struct {
	fn   string
	args []expr
}

func (termExpr) isExpr() {}
func (numExpr) isExpr()  {}
func (binExpr) isExpr()  {}
func (unExpr) isExpr()   {}
func (callExpr) isExpr() {}

type stmt struct {
	dst string // "" for effect-only statements
	rhs expr
}

type parser struct {
	toks []token
	i    int
}

func parse(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []stmt
	for p.peek().kind != tokEOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		for p.peek().kind == tokPunct && p.peek().text == ";" {
			p.i++
		}
	}
	return stmts, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("µC: expected %q at %d, got %q", text, t.pos, t.text)
	}
	return nil
}

func (p *parser) stmt() (stmt, error) {
	t := p.peek()
	if t.kind == tokIdent && p.toks[p.i+1].text == "=" {
		p.i += 2
		rhs, err := p.expr()
		if err != nil {
			return stmt{}, err
		}
		return stmt{dst: t.text, rhs: rhs}, nil
	}
	// Effect-only statement: must be a call.
	e, err := p.expr()
	if err != nil {
		return stmt{}, err
	}
	if _, ok := e.(callExpr); !ok {
		return stmt{}, fmt.Errorf("µC: statement at %d has no effect", t.pos)
	}
	return stmt{rhs: e}, nil
}

// Precedence climbing: * / %  >  + -  >  << >> >>>  >  &  >  ^  >  |
var precedence = map[string]int{
	"|": 1, "^": 2, "&": 3,
	"<<": 4, ">>": 4, ">>>": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		prec, ok := precedence[t.text]
		if t.kind != tokOp || !ok || prec < minPrec {
			return lhs, nil
		}
		p.i++
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = binExpr{op: t.text, l: lhs, r: rhs}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "-" || t.text == "~") {
		p.i++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return unExpr{op: t.text, x: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseInt(t.text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("µC: bad number %q at %d", t.text, t.pos)
		}
		return numExpr{val: v}, nil
	case tokIdent:
		if p.peek().text == "(" {
			p.i++
			var args []expr
			if p.peek().text != ")" {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().text != "," {
						break
					}
					p.i++
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return callExpr{fn: t.text, args: args}, nil
		}
		return termExpr{name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("µC: unexpected token %q at %d", t.text, t.pos)
}
