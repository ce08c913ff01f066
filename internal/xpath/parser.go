package xpath

import "strconv"

// Compile parses an XPath expression into an evaluatable form.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q", p.peek().text)
	}
	return &Expr{Source: src, root: root}, nil
}

// MustCompile is Compile that panics on error, for init-time expressions.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) error {
	if !p.accept(k) {
		return p.errf("expected %s, found %q", what, p.peek().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &syntaxError{Expr: p.src, Pos: p.peek().pos, Msg: sprintf(format, args...)}
}

func sprintf(format string, args ...any) string {
	if len(args) == 0 {
		return format
	}
	return fmtSprintf(format, args...)
}

func (p *parser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOr) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: tokOr, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (node, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.accept(tokAnd) {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: tokAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseEquality() (node, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		if k != tokEq && k != tokNeq {
			return l, nil
		}
		p.advance()
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: k, l: l, r: r}
	}
}

func (p *parser) parseRelational() (node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		if k != tokLt && k != tokLte && k != tokGt && k != tokGte {
			return l, nil
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: k, l: l, r: r}
	}
}

func (p *parser) parseAdditive() (node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		if k != tokPlus && k != tokMinus {
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: k, l: l, r: r}
	}
}

func (p *parser) parseMultiplicative() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		// '*' is multiplication only in operator position; the lexer
		// cannot tell, so the parser decides: after a complete operand a
		// star is an operator.
		if k != tokDiv && k != tokMod && k != tokStar {
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: k, l: l, r: r}
	}
}

func (p *parser) parseUnary() (node, error) {
	if p.accept(tokMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (node, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		l = &unionExpr{l: l, r: r}
	}
	return l, nil
}

// parsePath handles location paths and primary expressions with optional
// trailing paths (filter expressions).
func (p *parser) parsePath() (node, error) {
	switch p.peek().kind {
	case tokLiteral:
		return &litExpr{s: p.advance().text}, nil
	case tokNumber:
		t := p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &numExpr{v: v}, nil
	case tokLParen:
		p.advance()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return p.parseFilterTail(inner)
	case tokName:
		// Function call if followed by '(' and not a node-test keyword.
		if p.toks[p.pos+1].kind == tokLParen && !isNodeTestName(p.peek().text) {
			return p.parseCall()
		}
	}
	return p.parseLocationPath()
}

func isNodeTestName(s string) bool {
	return s == "text" || s == "node" || s == "comment"
}

func (p *parser) parseCall() (node, error) {
	name := p.advance().text
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	var args []node
	if p.peek().kind != tokRParen {
		for {
			a, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	call := &callExpr{name: name, args: args}
	return p.parseFilterTail(call)
}

// parseFilterTail wraps a primary with predicates and a trailing path if
// present: primary[pred]/rest.
func (p *parser) parseFilterTail(primary node) (node, error) {
	var preds []node
	for p.peek().kind == tokLBracket {
		pr, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
	}
	var trail *pathExpr
	if p.peek().kind == tokSlash || p.peek().kind == tokSlashSlash {
		path, err := p.parseRelativePathAfter(p.peek().kind == tokSlashSlash)
		if err != nil {
			return nil, err
		}
		trail = path
	}
	if len(preds) == 0 && trail == nil {
		return primary, nil
	}
	return &filterExpr{primary: primary, preds: preds, trail: trail}, nil
}

// parseRelativePathAfter consumes the leading / or // then steps.
func (p *parser) parseRelativePathAfter(dslash bool) (*pathExpr, error) {
	p.advance() // the slash token
	path := &pathExpr{}
	if dslash {
		path.steps = append(path.steps, &step{ax: axisDescendantOrSelf, tk: testNode})
	}
	if err := p.parseSteps(path); err != nil {
		return nil, err
	}
	return path, nil
}

func (p *parser) parseLocationPath() (node, error) {
	path := &pathExpr{}
	switch p.peek().kind {
	case tokSlash:
		p.advance()
		path.absolute = true
		if !p.stepStarts() {
			return path, nil // bare "/" selects the root
		}
	case tokSlashSlash:
		p.advance()
		path.absolute = true
		path.steps = append(path.steps, &step{ax: axisDescendantOrSelf, tk: testNode})
	}
	if err := p.parseSteps(path); err != nil {
		return nil, err
	}
	if len(path.steps) == 0 && !path.absolute {
		return nil, p.errf("expected expression, found %q", p.peek().text)
	}
	return path, nil
}

func (p *parser) stepStarts() bool {
	switch p.peek().kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *parser) parseSteps(path *pathExpr) error {
	for {
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		path.steps = append(path.steps, st)
		switch p.peek().kind {
		case tokSlash:
			p.advance()
		case tokSlashSlash:
			p.advance()
			path.steps = append(path.steps, &step{ax: axisDescendantOrSelf, tk: testNode})
		default:
			return nil
		}
	}
}

func (p *parser) parseStep() (*step, error) {
	st := &step{ax: axisChild}
	switch p.peek().kind {
	case tokDot:
		p.advance()
		st.ax, st.tk = axisSelf, testNode
		return st, nil
	case tokDotDot:
		p.advance()
		st.ax, st.tk = axisParent, testNode
		return st, nil
	case tokAt:
		p.advance()
		st.ax = axisAttribute
	}
	switch p.peek().kind {
	case tokStar:
		p.advance()
		st.tk = testAny
	case tokName:
		name := p.advance().text
		if p.peek().kind == tokLParen && isNodeTestName(name) {
			p.advance()
			if err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			switch name {
			case "text":
				st.tk = testText
			case "node":
				st.tk = testNode
			case "comment":
				st.tk = testComment
			}
		} else {
			st.tk = testName
			st.name = name
		}
	default:
		return nil, p.errf("expected step, found %q", p.peek().text)
	}
	for p.peek().kind == tokLBracket {
		pr, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		st.preds = append(st.preds, pr)
	}
	return st, nil
}

func (p *parser) parsePredicate() (node, error) {
	if err := p.expect(tokLBracket, "["); err != nil {
		return nil, err
	}
	inner, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRBracket, "]"); err != nil {
		return nil, err
	}
	return inner, nil
}
