package xmldom

import (
	"bytes"
	"fmt"
)

// oracleTokenizer is the byte-at-a-time scanner the Tokenizer replaced,
// kept verbatim (apart from names) as the reference the Tokenizer must
// agree with: the same tokens, the same position after each, and the same
// error at the same offset.
type oracleTokenizer struct {
	src     []byte
	pos     int
	phase   int
	sawDecl bool

	stack [][]byte
	attrs []TokAttr
}

func (t *oracleTokenizer) Reset(src []byte) {
	t.src = src
	t.pos = 0
	t.phase = phProlog
	t.sawDecl = false
	t.stack = t.stack[:0]
	t.attrs = t.attrs[:0]
}

func (t *oracleTokenizer) errf(format string, args ...any) error {
	return &parseError{Offset: t.pos, Msg: fmt.Sprintf(format, args...)}
}

func (t *oracleTokenizer) peekIs(s string) bool {
	if t.pos+len(s) > len(t.src) {
		return false
	}
	return string(t.src[t.pos:t.pos+len(s)]) == s
}

func oracleIsSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func oracleIsNameStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func oracleIsNameChar(b byte) bool {
	return oracleIsNameStart(b) || b == '-' || b == '.' || b == ':' || (b >= '0' && b <= '9')
}

func (t *oracleTokenizer) skipSpace() {
	for t.pos < len(t.src) && oracleIsSpace(t.src[t.pos]) {
		t.pos++
	}
}

func (t *oracleTokenizer) scanName() ([]byte, error) {
	start := t.pos
	if t.pos >= len(t.src) || !oracleIsNameStart(t.src[t.pos]) {
		return nil, t.errf("expected name")
	}
	t.pos++
	for t.pos < len(t.src) && oracleIsNameChar(t.src[t.pos]) {
		t.pos++
	}
	return t.src[start:t.pos], nil
}

func (t *oracleTokenizer) Next() (Token, error) {
	switch t.phase {
	case phProlog:
		return t.nextProlog()
	case phContent:
		return t.nextContent()
	default:
		return t.nextEpilog()
	}
}

func (t *oracleTokenizer) nextProlog() (Token, error) {
	t.skipSpace()
	if !t.sawDecl {
		t.sawDecl = true
		if t.peekIs("<?xml") {
			end := bytes.Index(t.src[t.pos:], []byte("?>"))
			if end < 0 {
				return Token{}, t.errf("unterminated XML declaration")
			}
			raw := t.src[t.pos+2 : t.pos+end]
			t.pos += end + 2
			return Token{Kind: TokDecl, Raw: raw}, nil
		}
	}
	switch {
	case t.peekIs("<!--"):
		return t.scanComment()
	case t.peekIs("<!DOCTYPE"):
		depth := 0
		for t.pos < len(t.src) {
			switch t.src[t.pos] {
			case '<':
				depth++
			case '>':
				depth--
			}
			t.pos++
			if depth == 0 {
				break
			}
		}
		if depth != 0 {
			return Token{}, t.errf("unterminated DOCTYPE")
		}
		return Token{Kind: TokDoctype}, nil
	default:
		return t.scanStartTag()
	}
}

func (t *oracleTokenizer) nextContent() (Token, error) {
	open := t.stack[len(t.stack)-1]
	if t.pos >= len(t.src) {
		return Token{}, t.errf("unterminated element <%s>", open)
	}
	switch {
	case t.peekIs("</"):
		t.pos += 2
		cname, err := t.scanName()
		if err != nil {
			return Token{}, err
		}
		if !bytes.Equal(cname, open) {
			return Token{}, t.errf("mismatched end tag </%s>, open <%s>", cname, open)
		}
		t.skipSpace()
		if err := t.expect(">"); err != nil {
			return Token{}, err
		}
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			t.phase = phEpilog
		}
		return Token{Kind: TokEnd, Name: cname}, nil
	case t.peekIs("<!--"):
		return t.scanComment()
	case t.peekIs("<![CDATA["):
		t.pos += len("<![CDATA[")
		end := bytes.Index(t.src[t.pos:], []byte("]]>"))
		if end < 0 {
			return Token{}, t.errf("unterminated CDATA section")
		}
		raw := t.src[t.pos : t.pos+end]
		t.pos += end + 3
		return Token{Kind: TokCDATA, Raw: raw}, nil
	case t.peekIs("<?"):
		t.pos += 2
		end := bytes.Index(t.src[t.pos:], []byte("?>"))
		if end < 0 {
			return Token{}, t.errf("unterminated processing instruction")
		}
		raw := t.src[t.pos : t.pos+end]
		t.pos += end + 2
		return Token{Kind: TokProcInst, Raw: raw}, nil
	case t.src[t.pos] == '<':
		return t.scanStartTag()
	default:
		return t.scanText()
	}
}

func (t *oracleTokenizer) nextEpilog() (Token, error) {
	t.skipSpace()
	if t.pos >= len(t.src) {
		return Token{Kind: TokEOF}, nil
	}
	if t.peekIs("<!--") {
		return t.scanComment()
	}
	return Token{}, t.errf("content after document element")
}

func (t *oracleTokenizer) expect(s string) error {
	if !t.peekIs(s) {
		return t.errf("expected %q", s)
	}
	t.pos += len(s)
	return nil
}

func (t *oracleTokenizer) scanComment() (Token, error) {
	if err := t.expect("<!--"); err != nil {
		return Token{}, err
	}
	end := bytes.Index(t.src[t.pos:], []byte("-->"))
	if end < 0 {
		return Token{}, t.errf("unterminated comment")
	}
	raw := t.src[t.pos : t.pos+end]
	t.pos += end + 3
	return Token{Kind: TokComment, Raw: raw}, nil
}

func (t *oracleTokenizer) scanStartTag() (Token, error) {
	if err := t.expect("<"); err != nil {
		return Token{}, err
	}
	name, err := t.scanName()
	if err != nil {
		return Token{}, err
	}
	t.attrs = t.attrs[:0]
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return Token{}, t.errf("unterminated start tag <%s", name)
		}
		c := t.src[t.pos]
		if c == '/' || c == '>' {
			break
		}
		aname, err := t.scanName()
		if err != nil {
			return Token{}, err
		}
		t.skipSpace()
		if err := t.expect("="); err != nil {
			return Token{}, err
		}
		t.skipSpace()
		aval, hasEnt, err := t.scanAttrValue()
		if err != nil {
			return Token{}, err
		}
		for _, a := range t.attrs {
			if bytes.Equal(a.Name, aname) {
				return Token{}, t.errf("duplicate attribute %q", aname)
			}
		}
		t.attrs = append(t.attrs, TokAttr{Name: aname, RawValue: aval, HasEntity: hasEnt})
	}
	tok := Token{Kind: TokStart, Name: name, Attrs: t.attrs}
	if t.peekIs("/>") {
		t.pos += 2
		tok.SelfClose = true
		if len(t.stack) == 0 {
			t.phase = phEpilog
		}
		return tok, nil
	}
	if err := t.expect(">"); err != nil {
		return Token{}, err
	}
	t.stack = append(t.stack, name)
	t.phase = phContent
	return tok, nil
}

func (t *oracleTokenizer) scanAttrValue() ([]byte, bool, error) {
	if t.pos >= len(t.src) || (t.src[t.pos] != '"' && t.src[t.pos] != '\'') {
		return nil, false, t.errf("expected quoted attribute value")
	}
	quote := t.src[t.pos]
	t.pos++
	start := t.pos
	hasEnt := false
	for {
		if t.pos >= len(t.src) {
			return nil, false, t.errf("unterminated attribute value")
		}
		c := t.src[t.pos]
		if c == quote {
			break
		}
		if c == '<' {
			return nil, false, t.errf("'<' in attribute value")
		}
		if c == '&' {
			_, next, msg := decodeEntityAt(t.src, t.pos)
			if msg == errUnterminatedEntity {
				return nil, false, t.errf("%s", msg)
			}
			t.pos = next
			if msg != "" {
				return nil, false, t.errf("%s", msg)
			}
			hasEnt = true
			continue
		}
		t.pos++
	}
	raw := t.src[start:t.pos]
	t.pos++
	return raw, hasEnt, nil
}

func (t *oracleTokenizer) scanText() (Token, error) {
	start := t.pos
	hasEnt := false
	for t.pos < len(t.src) && t.src[t.pos] != '<' {
		if t.src[t.pos] == '&' {
			_, next, msg := decodeEntityAt(t.src, t.pos)
			if msg == errUnterminatedEntity {
				return Token{}, t.errf("%s", msg)
			}
			t.pos = next
			if msg != "" {
				return Token{}, t.errf("%s", msg)
			}
			hasEnt = true
			continue
		}
		t.pos++
	}
	return Token{Kind: TokText, Raw: t.src[start:t.pos], HasEntity: hasEnt}, nil
}

// TokenStep is one token of a trace and the tokenizer's position after it.
type TokenStep struct {
	Tok Token
	Pos int
}

// OracleTrace tokenizes src with the oracle to the end or the first error,
// recording each token (attributes copied out) and the position after it.
// It and Pos exist for the external tests, which alone may import the
// workload generator.
func OracleTrace(src []byte) ([]TokenStep, error) {
	var tz oracleTokenizer
	tz.Reset(src)
	var steps []TokenStep
	for {
		tok, err := tz.Next()
		if err != nil {
			return steps, err
		}
		tok.Attrs = append([]TokAttr(nil), tok.Attrs...)
		steps = append(steps, TokenStep{tok, tz.pos})
		if tok.Kind == TokEOF {
			return steps, nil
		}
	}
}

// Pos is the offset the tokenizer scans on from.
func (t *Tokenizer) Pos() int { return t.pos }
