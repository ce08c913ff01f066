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
// source buffer — no copies are made. A Token (and its Attrs) is only
// valid until the next call to Next.
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
// grammar: it alone decides what is well-formed. Every tree builder is a
// consumer of its tokens — StreamParser (and Parse, through it) for the
// live path, ParseInstrumented for the simulator — so they accept and
// reject the same documents by construction. The tokenizer makes no
// per-token copies: all token contents are subslices of src. A zero
// Tokenizer is not ready; call Reset first. Tokenizers are reusable across
// documents and are not safe for concurrent use.
type Tokenizer struct {
	src     []byte
	pos     int
	phase   int
	sawDecl bool

	// stack holds open element names (views into src) for end-tag
	// matching; attrs is the reused attribute backing for start tags.
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

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func isNameStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func isNameChar(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || b == ':' || (b >= '0' && b <= '9')
}

func (t *Tokenizer) skipSpace() {
	for t.pos < len(t.src) && isSpace(t.src[t.pos]) {
		t.pos++
	}
}

func (t *Tokenizer) scanName() ([]byte, error) {
	start := t.pos
	if t.pos >= len(t.src) || !isNameStart(t.src[t.pos]) {
		return nil, t.errf("expected name")
	}
	t.pos++
	for t.pos < len(t.src) && isNameChar(t.src[t.pos]) {
		t.pos++
	}
	return t.src[start:t.pos], nil
}

// Next returns the next token. After TokEOF or an error the tokenizer
// must be Reset before reuse.
func (t *Tokenizer) Next() (Token, error) {
	switch t.phase {
	case phProlog:
		return t.nextProlog()
	case phContent:
		return t.nextContent()
	default:
		return t.nextEpilog()
	}
}

func (t *Tokenizer) nextProlog() (Token, error) {
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
		// The document element. Anything else fails inside scanStartTag.
		return t.scanStartTag()
	}
}

func (t *Tokenizer) nextContent() (Token, error) {
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

func (t *Tokenizer) nextEpilog() (Token, error) {
	t.skipSpace()
	if t.pos >= len(t.src) {
		return Token{Kind: TokEOF}, nil
	}
	if t.peekIs("<!--") {
		return t.scanComment()
	}
	return Token{}, t.errf("content after document element")
}

func (t *Tokenizer) expect(s string) error {
	if !t.peekIs(s) {
		return t.errf("expected %q", s)
	}
	t.pos += len(s)
	return nil
}

func (t *Tokenizer) scanComment() (Token, error) {
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

// scanStartTag parses `<name attr="v"... >` or `.../>` and pushes the
// element on the open stack unless self-closed.
func (t *Tokenizer) scanStartTag() (Token, error) {
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

// scanAttrValue returns the raw bytes between the quotes. Entity
// references are validated (so malformed ones are rejected here) but not
// decoded — decoding happens in the consumer, off the copy-free path.
func (t *Tokenizer) scanAttrValue() ([]byte, bool, error) {
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
	t.pos++ // closing quote
	return raw, hasEnt, nil
}

// scanText returns the character-data run up to the next '<' (or EOF —
// the following Next call reports the unterminated element). Entities
// are validated in place; Raw keeps them undecoded.
func (t *Tokenizer) scanText() (Token, error) {
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

// errUnterminatedEntity is the decodeEntityAt message for a missing ';'.
// It is reported at the '&'; the other entity errors are reported past
// the ';' — the sentinel tells the two apart.
const errUnterminatedEntity = "unterminated entity reference"

// decodeEntityAt decodes one entity reference at src[pos] (which must
// point at '&'). It returns the decoded text, the offset just past the
// ';', and an empty msg — or a non-empty error message. The tokenizer
// validates every reference through it and the tree builders decode
// through it, so a reference the tokenizer let pass cannot fail later.
func decodeEntityAt(src []byte, pos int) (s string, next int, msg string) {
	semi := -1
	limit := pos + 12
	if limit > len(src) {
		limit = len(src)
	}
	for i := pos + 1; i < limit; i++ {
		if src[i] == ';' {
			semi = i
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
	if len(name) >= 2 && name[0] == '#' && (name[1] == 'x' || name[1] == 'X') {
		v, err := strconv.ParseUint(string(name[2:]), 16, 32)
		if err != nil {
			return "", next, "bad character reference &" + string(name) + ";"
		}
		return string(rune(v)), next, ""
	}
	if len(name) >= 1 && name[0] == '#' {
		v, err := strconv.ParseUint(string(name[1:]), 10, 32)
		if err != nil {
			return "", next, "bad character reference &" + string(name) + ";"
		}
		return string(rune(v)), next, ""
	}
	return "", next, "unknown entity &" + string(name) + ";"
}
