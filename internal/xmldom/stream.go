package xmldom

import (
	"bytes"
	"fmt"
	"strconv"
)

// TokKind classifies streaming tokens.
type TokKind uint8

const (
	// TokEOF marks the end of a well-formed document.
	TokEOF TokKind = iota
	// TokStart is an element start tag (SelfClose distinguishes <a/>).
	TokStart
	// TokEnd is an element end tag.
	TokEnd
	// TokText is character data; Raw is undecoded (HasEntity tells the
	// consumer whether entity references remain to be resolved).
	TokText
	// TokCDATA is a CDATA section; Raw is the literal section body.
	TokCDATA
	// TokComment is a comment body.
	TokComment
	// TokProcInst is a processing instruction (target and data together).
	TokProcInst
	// TokDecl is the <?xml ...?> declaration.
	TokDecl
	// TokDoctype is a skipped DOCTYPE declaration.
	TokDoctype
)

// TokAttr is one attribute of a start tag. RawValue is the undecoded
// value body between the quotes; HasEntity reports whether it contains
// entity references (already validated by the tokenizer).
type TokAttr struct {
	Name      []byte
	RawValue  []byte
	HasEntity bool
}

// Token is one pull-parser event. Every byte slice is a view into the
// source buffer — no copies are made. Next hands out a pointer to the one
// Token its Tokenizer owns and rewrites on every call, so a Token (and its
// Attrs) is only valid until the next call to Next or Reset.
type Token struct {
	Kind      TokKind
	Name      []byte    // start/end tag name
	Raw       []byte    // text/CDATA/comment/PI/decl payload
	Attrs     []TokAttr // start tag attributes (reused backing array)
	SelfClose bool
	HasEntity bool // Raw contains entity references (TokText only)
}

// Tokenizer phases.
const (
	phProlog  = iota // before the document element
	phContent        // inside the document element
	phEpilog         // after the document element closed
)

// Tokenizer is a streaming pull scanner and the package's one XML
// grammar: it alone decides what is well-formed. StreamParser, the one
// tree builder, consumes its tokens — for the live path (and Parse,
// through it) and, metered, for the simulator — so every parse accepts
// and rejects the same documents by construction. The tokenizer makes no
// per-token copies: all token contents are subslices of src, and runs of
// character data are skipped with bytes.IndexByte rather than a byte at a
// time. A zero Tokenizer is not ready; call Reset first. Tokenizers are
// reusable across documents and are not safe for concurrent use.
type Tokenizer struct {
	src     []byte
	pos     int
	phase   int
	sawDecl bool

	// tok is the token Next hands out. stack holds open element names
	// (views into src) for end-tag matching; attrs is the reused
	// attribute backing for start tags.
	tok   Token
	stack [][]byte
	attrs []TokAttr
}

// Reset points the tokenizer at a new document, retaining internal
// scratch capacity from prior runs.
func (t *Tokenizer) Reset(src []byte) {
	t.src = src
	t.pos = 0
	t.phase = phProlog
	t.sawDecl = false
	t.tok = Token{}
	t.stack = t.stack[:0]
	t.attrs = t.attrs[:0]
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return &parseError{Offset: t.pos, Msg: fmt.Sprintf(format, args...)}
}

func (t *Tokenizer) peekIs(s string) bool {
	if t.pos+len(s) > len(t.src) {
		return false
	}
	return string(t.src[t.pos:t.pos+len(s)]) == s
}

// expect consumes the byte c or reports it missing.
func (t *Tokenizer) expect(c byte) error {
	if t.pos < len(t.src) && t.src[t.pos] == c {
		t.pos++
		return nil
	}
	return t.errf("expected %q", string(c))
}

// emit makes the handed-out token a kind with a payload.
func (t *Tokenizer) emit(kind TokKind, raw []byte) (*Token, error) {
	return t.set(kind, nil, raw, nil, false, false), nil
}

// set rewrites the handed-out token field by field: assigning a Token
// literal zeroes and block-copies the whole struct on every token.
func (t *Tokenizer) set(kind TokKind, name, raw []byte, attrs []TokAttr, selfClose, hasEnt bool) *Token {
	tok := &t.tok
	tok.Kind = kind
	tok.Name = name
	tok.Raw = raw
	tok.Attrs = attrs
	tok.SelfClose = selfClose
	tok.HasEntity = hasEnt
	return tok
}

// Byte classes for the name and whitespace scans: one table load per
// byte instead of a chain of comparisons.
const (
	clSpace     = 1 << iota // ' ', '\t', '\r', '\n'
	clNameStart             // '_', an ASCII letter, or any byte >= 0x80
	clName                  // a name start, '-', '.', ':' or a digit
)

var charClass = func() (c [256]uint8) {
	for b := 0; b < len(c); b++ {
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			c[b] = clSpace
		case b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= 0x80:
			c[b] = clNameStart | clName
		case b == '-' || b == '.' || b == ':' || b >= '0' && b <= '9':
			c[b] = clName
		}
	}
	return c
}()

func isSpace(b byte) bool { return charClass[b]&clSpace != 0 }

func (t *Tokenizer) skipSpace() {
	pos := t.pos
	for pos < len(t.src) && isSpace(t.src[pos]) {
		pos++
	}
	t.pos = pos
}

func (t *Tokenizer) scanName() ([]byte, error) {
	src, start := t.src, t.pos
	if start >= len(src) || charClass[src[start]]&clNameStart == 0 {
		return nil, t.errf("expected name")
	}
	pos := start + 1
	for pos < len(src) && charClass[src[pos]]&clName != 0 {
		pos++
	}
	t.pos = pos
	return src[start:pos], nil
}

// Next returns the next token, which stays valid until the following
// Next or Reset. After TokEOF or an error the tokenizer must be Reset
// before reuse.
func (t *Tokenizer) Next() (*Token, error) {
	switch t.phase {
	case phProlog:
		return t.nextProlog()
	case phContent:
		return t.nextContent()
	default:
		return t.nextEpilog()
	}
}

func (t *Tokenizer) nextProlog() (*Token, error) {
	t.skipSpace()
	if !t.sawDecl {
		t.sawDecl = true
		if t.peekIs("<?xml") {
			end := bytes.Index(t.src[t.pos:], []byte("?>"))
			if end < 0 {
				return nil, t.errf("unterminated XML declaration")
			}
			raw := t.src[t.pos+2 : t.pos+end]
			t.pos += end + 2
			return t.emit(TokDecl, raw)
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
			return nil, t.errf("unterminated DOCTYPE")
		}
		return t.emit(TokDoctype, nil)
	default:
		// The document element. Anything else fails inside scanStartTag.
		return t.scanStartTag()
	}
}

// nextContent dispatches on the byte at pos and, after a '<', the one
// after it.
func (t *Tokenizer) nextContent() (*Token, error) {
	src, pos := t.src, t.pos
	if pos >= len(src) {
		return nil, t.errf("unterminated element <%s>", t.stack[len(t.stack)-1])
	}
	if src[pos] != '<' {
		return t.scanText()
	}
	if pos+1 < len(src) {
		switch src[pos+1] {
		case '/':
			return t.scanEndTag()
		case '!':
			if t.peekIs("<!--") {
				return t.scanComment()
			}
			if t.peekIs("<![CDATA[") {
				t.pos += len("<![CDATA[")
				end := bytes.Index(src[t.pos:], []byte("]]>"))
				if end < 0 {
					return nil, t.errf("unterminated CDATA section")
				}
				raw := src[t.pos : t.pos+end]
				t.pos += end + 3
				return t.emit(TokCDATA, raw)
			}
		case '?':
			t.pos += 2
			end := bytes.Index(src[t.pos:], []byte("?>"))
			if end < 0 {
				return nil, t.errf("unterminated processing instruction")
			}
			raw := src[t.pos : t.pos+end]
			t.pos += end + 2
			return t.emit(TokProcInst, raw)
		}
	}
	// A start tag, or (after "<!" that opens neither a comment nor a
	// CDATA section, or a lone '<' at the end) the error scanning one gives.
	return t.scanStartTag()
}

// scanEndTag scans "</name S? >". The name is matched against the open
// element's by length and bytes, provided no name byte follows it;
// otherwise it is scanned as a name, which then cannot equal the open
// one, so the mismatch reads as the scanned name.
func (t *Tokenizer) scanEndTag() (*Token, error) {
	src, open := t.src, t.stack[len(t.stack)-1]
	t.pos += len("</")
	start, end := t.pos, t.pos+len(open)
	if end > len(src) || !bytes.Equal(src[start:end], open) || end < len(src) && charClass[src[end]]&clName != 0 {
		cname, err := t.scanName()
		if err != nil {
			return nil, err
		}
		return nil, t.errf("mismatched end tag </%s>, open <%s>", cname, open)
	}
	t.pos = end
	t.skipSpace()
	if err := t.expect('>'); err != nil {
		return nil, err
	}
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.phase = phEpilog
	}
	return t.set(TokEnd, src[start:end], nil, nil, false, false), nil
}

func (t *Tokenizer) nextEpilog() (*Token, error) {
	t.skipSpace()
	if t.pos >= len(t.src) {
		return t.emit(TokEOF, nil)
	}
	if t.peekIs("<!--") {
		return t.scanComment()
	}
	return nil, t.errf("content after document element")
}

// scanComment scans a comment whose "<!--" is at pos.
func (t *Tokenizer) scanComment() (*Token, error) {
	t.pos += len("<!--")
	end := bytes.Index(t.src[t.pos:], []byte("-->"))
	if end < 0 {
		return nil, t.errf("unterminated comment")
	}
	raw := t.src[t.pos : t.pos+end]
	t.pos += end + 3
	return t.emit(TokComment, raw)
}

// scanStartTag parses `<name attr="v"... >` or `.../>` and pushes the
// element on the open stack unless self-closed.
func (t *Tokenizer) scanStartTag() (*Token, error) {
	if err := t.expect('<'); err != nil {
		return nil, err
	}
	name, err := t.scanName()
	if err != nil {
		return nil, err
	}
	t.attrs = t.attrs[:0]
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return nil, t.errf("unterminated start tag <%s", name)
		}
		c := t.src[t.pos]
		if c == '/' || c == '>' {
			break
		}
		aname, err := t.scanName()
		if err != nil {
			return nil, err
		}
		t.skipSpace()
		if err := t.expect('='); err != nil {
			return nil, err
		}
		t.skipSpace()
		aval, hasEnt, err := t.scanAttrValue()
		if err != nil {
			return nil, err
		}
		for i := range t.attrs {
			if bytes.Equal(t.attrs[i].Name, aname) {
				return nil, t.errf("duplicate attribute %q", aname)
			}
		}
		t.attrs = append(t.attrs, TokAttr{Name: aname, RawValue: aval, HasEntity: hasEnt})
	}
	if t.src[t.pos] == '/' {
		if t.pos+1 == len(t.src) || t.src[t.pos+1] != '>' {
			return nil, t.errf("expected %q", ">")
		}
		t.pos += 2
		if len(t.stack) == 0 {
			t.phase = phEpilog
		}
		return t.set(TokStart, name, nil, t.attrs, true, false), nil
	}
	t.pos++ // '>'
	t.stack = append(t.stack, name)
	t.phase = phContent
	return t.set(TokStart, name, nil, t.attrs, false, false), nil
}

// scanAttrValue returns the raw bytes between the quotes. Entity
// references are validated (so malformed ones are rejected here) but not
// decoded — decoding happens in the consumer, off the copy-free path. The
// value's end is the next quote and its first '<' is found once; entities
// before that '<' are found by IndexByte, so the scan stays linear in the
// value's length however many entities it holds.
func (t *Tokenizer) scanAttrValue() ([]byte, bool, error) {
	src := t.src
	if t.pos >= len(src) || (src[t.pos] != '"' && src[t.pos] != '\'') {
		return nil, false, t.errf("expected quoted attribute value")
	}
	start := t.pos + 1
	end := len(src) // no closing quote: the value runs to the end
	if i := bytes.IndexByte(src[start:], src[t.pos]); i >= 0 {
		end = start + i
	}
	lim := end // entities are searched for up to the first '<', if any
	lt := bytes.IndexByte(src[start:end], '<')
	if lt >= 0 {
		lim = start + lt
	}
	hasEnt := false
	for pos := start; ; pos = t.pos {
		amp := bytes.IndexByte(src[pos:lim], '&')
		if amp < 0 {
			break
		}
		if err := t.entity(pos + amp); err != nil {
			return nil, false, err
		}
		hasEnt = true
	}
	if lt >= 0 {
		t.pos = lim
		return nil, false, t.errf("'<' in attribute value")
	}
	if end == len(src) {
		t.pos = end
		return nil, false, t.errf("unterminated attribute value")
	}
	t.pos = end + 1 // closing quote
	return src[start:end], hasEnt, nil
}

// scanText returns the character-data run up to the next '<' (or EOF —
// the following Next call reports the unterminated element). Entities
// are validated in place; Raw keeps them undecoded.
func (t *Tokenizer) scanText() (*Token, error) {
	src, start := t.src, t.pos
	end := len(src)
	if i := bytes.IndexByte(src[start:], '<'); i >= 0 {
		end = start + i
	}
	hasEnt := false
	for pos := start; ; pos = t.pos {
		amp := bytes.IndexByte(src[pos:end], '&')
		if amp < 0 {
			break
		}
		if err := t.entity(pos + amp); err != nil {
			return nil, err
		}
		hasEnt = true
	}
	t.pos = end
	return t.set(TokText, nil, src[start:end], nil, false, hasEnt), nil
}

// entity validates the reference at src[pos] ('&') and moves past it. A
// reference that decodes has no '<' or quote in it, so it ends inside the
// text run or attribute value it starts in.
func (t *Tokenizer) entity(pos int) error {
	_, next, msg := decodeEntityAt(t.src, pos)
	t.pos = next // pos itself when unterminated: the error is reported at the '&'
	if msg != "" {
		return t.errf("%s", msg)
	}
	return nil
}

// errUnterminatedEntity is the decodeEntityAt message for a missing ';'.
// It is reported at the '&'; the other entity errors are reported past
// the ';' — the sentinel tells the two apart.
const errUnterminatedEntity = "unterminated entity reference"

// decodeEntityAt decodes one entity reference at src[pos] (which must
// point at '&'). It returns the decoded text, the offset just past the
// ';', and an empty msg — or a non-empty error message. The tokenizer
// validates every reference through it, and StreamParser and the meter
// decode through it, so a reference the tokenizer let pass cannot fail
// later.
func decodeEntityAt(src []byte, pos int) (s string, next int, msg string) {
	semi := -1
	for i := pos + 1; i < len(src); i++ {
		c := src[i]
		if c == ';' {
			semi = i
			break
		}
		// A character reference may carry any number of digits; any other
		// name is at most ten bytes long.
		if i >= pos+11 && (src[pos+1] != '#' || !isHexDigit(c)) {
			break
		}
	}
	if semi < 0 {
		return "", pos, errUnterminatedEntity
	}
	name := src[pos+1 : semi]
	next = semi + 1
	switch {
	case len(name) == 2 && name[0] == 'l' && name[1] == 't':
		return "<", next, ""
	case len(name) == 2 && name[0] == 'g' && name[1] == 't':
		return ">", next, ""
	case len(name) == 3 && name[0] == 'a' && name[1] == 'm' && name[2] == 'p':
		return "&", next, ""
	case len(name) == 4 && string(name) == "quot":
		return `"`, next, ""
	case len(name) == 4 && string(name) == "apos":
		return "'", next, ""
	}
	if len(name) >= 1 && name[0] == '#' {
		// XML 1.0 §4.1: '&#' [0-9]+ ';' or '&#x' [0-9a-fA-F]+ ';', naming
		// a Char.
		digits, base := name[1:], 10
		if len(digits) > 0 && digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		v, err := strconv.ParseUint(string(digits), base, 32)
		if err != nil || !isChar(v) {
			return "", next, "bad character reference &" + string(name) + ";"
		}
		return string(rune(v)), next, ""
	}
	return "", next, "unknown entity &" + string(name) + ";"
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isChar reports whether v is an XML 1.0 Char: #x9 | #xA | #xD |
// [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF].
func isChar(v uint64) bool {
	return v == 0x9 || v == 0xA || v == 0xD || 0x20 <= v && v <= 0xD7FF ||
		0xE000 <= v && v <= 0xFFFD || 0x10000 <= v && v <= 0x10FFFF
}
