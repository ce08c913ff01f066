// Package xpath implements the XPath 1.0 subset the AON use cases need —
// location paths with child/descendant/attribute/self/parent axes, node
// tests (names, *, text(), node(), comment()), predicates, the four value
// types (node-set, string, number, boolean), comparison and boolean
// operators, and the core function library. Content-based routing (the
// paper's CBR use case) evaluates expressions like //quantity/text()
// against incoming SOAP messages through this package.
//
// Like the XML parser, evaluation is dual-use: plain, or instrumented to
// emit the micro-op stream of the equivalent compiled evaluator.
//
// Evaluation is linear in the nodes it visits and, for a path that selects
// text or attribute nodes, allocation-free: each step walks its axis from
// every context node and appends the matches to a buffer; document order
// comes from xmldom.Node.Ord, stamped at parse time, so a step's result is
// sorted (by Ord, O(k log k) on its k nodes) only when two contexts' runs
// interleave, never by walking the document. The buffers belong to a pooled
// scratch taken per top-level call, so one Evaluator serves any number of
// goroutines.
//
// Result lifetime: nothing a call returns refers to the scratch, which is
// never read after the call. Eval returns a caller-owned copy of a
// node-set; the nodes themselves, and the string EvalString returns for a
// text or attribute node (the node's Data, not a copy), live exactly as
// long as the tree — for a StreamParser tree, until the parser's next Parse
// or Release and only while the source buffer is unmodified.
package xpath

import "fmt"

type tokKind int

const (
	tokEOF  tokKind = iota
	tokName         // element or function name
	tokNumber
	tokLiteral    // quoted string
	tokSlash      // /
	tokSlashSlash // //
	tokLBracket   // [
	tokRBracket   // ]
	tokLParen     // (
	tokRParen     // )
	tokAt         // @
	tokDot        // .
	tokDotDot     // ..
	tokStar       // *
	tokComma      // ,
	tokPipe       // |
	tokEq         // =
	tokNeq        // !=
	tokLt         // <
	tokLte        // <=
	tokGt         // >
	tokGte        // >=
	tokPlus       // +
	tokMinus      // -
	tokAnd        // and
	tokOr         // or
	tokDiv        // div
	tokMod        // mod
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// syntaxError reports a malformed expression.
type syntaxError struct {
	Expr string
	Pos  int
	Msg  string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("xpath: %q at %d: %s", e.Expr, e.Pos, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return &syntaxError{Expr: l.src, Pos: l.pos, Msg: fmt.Sprintf(format, args...)}
}

func isXDigit(b byte) bool { return b >= '0' && b <= '9' }

func isXNameStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func isXNameChar(b byte) bool {
	return isXNameStart(b) || b == '-' || b == '.' || b == ':' || isXDigit(b)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n') {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch {
	case two == "//":
		l.pos += 2
		return token{tokSlashSlash, "//", start}, nil
	case two == "..":
		l.pos += 2
		return token{tokDotDot, "..", start}, nil
	case two == "!=":
		l.pos += 2
		return token{tokNeq, "!=", start}, nil
	case two == "<=":
		l.pos += 2
		return token{tokLte, "<=", start}, nil
	case two == ">=":
		l.pos += 2
		return token{tokGte, ">=", start}, nil
	}
	switch c {
	case '/':
		l.pos++
		return token{tokSlash, "/", start}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", start}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", start}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case '|':
		l.pos++
		return token{tokPipe, "|", start}, nil
	case '=':
		l.pos++
		return token{tokEq, "=", start}, nil
	case '<':
		l.pos++
		return token{tokLt, "<", start}, nil
	case '>':
		l.pos++
		return token{tokGt, ">", start}, nil
	case '+':
		l.pos++
		return token{tokPlus, "+", start}, nil
	case '-':
		l.pos++
		return token{tokMinus, "-", start}, nil
	case '.':
		if l.pos+1 < len(l.src) && isXDigit(l.src[l.pos+1]) {
			return l.lexNumber()
		}
		l.pos++
		return token{tokDot, ".", start}, nil
	case '"', '\'':
		quote := c
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated literal")
		}
		text := l.src[s:l.pos]
		l.pos++
		return token{tokLiteral, text, start}, nil
	}
	if isXDigit(c) {
		return l.lexNumber()
	}
	if isXNameStart(c) {
		l.pos++
		for l.pos < len(l.src) && isXNameChar(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		switch text {
		case "and":
			return token{tokAnd, text, start}, nil
		case "or":
			return token{tokOr, text, start}, nil
		case "div":
			return token{tokDiv, text, start}, nil
		case "mod":
			return token{tokMod, text, start}, nil
		}
		return token{tokName, text, start}, nil
	}
	return token{}, l.errf("unexpected character %q", string(c))
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isXDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isXDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return token{tokNumber, l.src[start:l.pos], start}, nil
}
