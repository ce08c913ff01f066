package xmldom

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/perf/trace"
)

// Parser is a recursive-descent XML parser over a byte slice. It performs
// real parsing work and, when instrumented, mirrors that work as a
// micro-op stream.
type Parser struct {
	src []byte
	pos int
	ord uint32 // nodes created so far: the next node's Ord

	em    trace.Emitter
	base  uint64       // synthetic address of src[0]
	arena *trace.Arena // synthetic heap for tree nodes
}

// Parse parses a document without instrumentation. It is safe for
// concurrent use, and allocates no synthetic-heap bookkeeping at all:
// the micro-op stream goes nowhere, so node placement is skipped (every
// SimAddr stays zero).
func Parse(src []byte) (*Node, error) {
	return ParseInstrumented(src, trace.Nop{}, 0, nil)
}

// ParseInstrumented parses a document while emitting the equivalent
// micro-op stream to em. base is the synthetic address of src in the
// simulated address space; arena provides node placement (nil with a
// real emitter allocates a private scratch arena, which keeps concurrent
// parses from sharing allocator state). With a Nop emitter and no arena
// the synthetic heap is skipped entirely — the live gateway path pays
// nothing for the sim path's bookkeeping.
func ParseInstrumented(src []byte, em trace.Emitter, base uint64, arena *trace.Arena) (*Node, error) {
	if arena == nil {
		if _, nop := em.(trace.Nop); !nop {
			arena = trace.NewArena(1<<40, 1<<26)
		}
	}
	p := &Parser{src: src, em: em, base: base, arena: arena}
	doc := p.newNode(Document, "")
	if err := p.parseProlog(doc); err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.parseElement(doc); err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			break
		}
		if p.peekIs("<!--") {
			if err := p.parseComment(doc); err != nil {
				return nil, err
			}
			continue
		}
		return nil, p.errf("content after document element")
	}
	if doc.DocumentElement() == nil {
		return nil, p.errf("no document element")
	}
	return doc, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) newNode(kind NodeKind, data string) *Node {
	n := &Node{Kind: kind, Ord: p.ord, Data: data}
	p.ord++
	if p.arena != nil {
		n.SimAddr = p.arena.Alloc(nodeSimBytes + uint64(len(data)))
		p.emitAlloc(n, len(data))
	}
	return n
}

func (p *Parser) attach(parent, child *Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
	p.emitAttach(parent, child)
}

// ---- low-level scanning ----

func (p *Parser) peekIs(s string) bool {
	if p.pos+len(s) > len(p.src) {
		return false
	}
	return string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *Parser) expect(s string) error {
	if !p.peekIs(s) {
		return p.errf("expected %q", s)
	}
	p.emitMatch(p.pos, len(s))
	p.pos += len(s)
	return nil
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func isNameStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func isNameChar(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || b == ':' || (b >= '0' && b <= '9')
}

func (p *Parser) skipSpace() {
	start := p.pos
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
	p.emitSpaceRun(start, p.pos)
}

func (p *Parser) scanName() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	p.pos++
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	p.emitNameRun(start, p.pos)
	return string(p.src[start:p.pos]), nil
}

// errUnterminatedEntity is the decodeEntityAt message for a missing ';'.
// The DOM parser reports it without advancing, unlike the other entity
// errors — the sentinel keeps that behavior exact.
const errUnterminatedEntity = "unterminated entity reference"

// decodeEntityAt decodes one entity reference at src[pos] (which must
// point at '&'). It returns the decoded text, the offset just past the
// ';', and an empty msg — or a non-empty error message. Both the DOM
// parser and the streaming tokenizer route through it, so the two accept
// and reject exactly the same entity forms by construction.
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

// scanEntity decodes one entity reference at p.pos (which points at '&').
func (p *Parser) scanEntity() (string, error) {
	s, next, msg := decodeEntityAt(p.src, p.pos)
	if msg == errUnterminatedEntity {
		return "", p.errf("%s", msg)
	}
	p.emitNameRun(p.pos, next)
	p.pos = next
	if msg != "" {
		return "", p.errf("%s", msg)
	}
	return s, nil
}

func (p *Parser) scanAttrValue() (string, error) {
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", p.errf("expected quoted attribute value")
	}
	quote := p.src[p.pos]
	p.pos++
	start := p.pos
	var b strings.Builder
	for {
		if p.pos >= len(p.src) {
			return "", p.errf("unterminated attribute value")
		}
		c := p.src[p.pos]
		if c == quote {
			break
		}
		if c == '<' {
			return "", p.errf("'<' in attribute value")
		}
		if c == '&' {
			p.emitTextRun(start, p.pos)
			b.Write(p.src[start:p.pos])
			r, err := p.scanEntity()
			if err != nil {
				return "", err
			}
			b.WriteString(r)
			start = p.pos
			continue
		}
		p.pos++
	}
	p.emitTextRun(start, p.pos)
	b.Write(p.src[start:p.pos])
	p.pos++ // closing quote
	return b.String(), nil
}

// ---- document structure ----

func (p *Parser) parseProlog(doc *Node) error {
	p.skipSpace()
	if p.peekIs("<?xml") {
		end := strings.Index(string(p.src[p.pos:]), "?>")
		if end < 0 {
			return p.errf("unterminated XML declaration")
		}
		decl := string(p.src[p.pos+2 : p.pos+end])
		p.emitTextRun(p.pos, p.pos+end+2)
		p.pos += end + 2
		p.attach(doc, p.newNode(ProcInst, decl))
	}
	for {
		p.skipSpace()
		switch {
		case p.peekIs("<!--"):
			if err := p.parseComment(doc); err != nil {
				return err
			}
		case p.peekIs("<!DOCTYPE"):
			depth := 0
			start := p.pos
			for p.pos < len(p.src) {
				switch p.src[p.pos] {
				case '<':
					depth++
				case '>':
					depth--
				}
				p.pos++
				if depth == 0 {
					break
				}
			}
			if depth != 0 {
				return p.errf("unterminated DOCTYPE")
			}
			p.emitTextRun(start, p.pos)
		default:
			return nil
		}
	}
}

func (p *Parser) parseComment(parent *Node) error {
	start := p.pos
	if err := p.expect("<!--"); err != nil {
		return err
	}
	end := strings.Index(string(p.src[p.pos:]), "-->")
	if end < 0 {
		return p.errf("unterminated comment")
	}
	data := string(p.src[p.pos : p.pos+end])
	p.emitTextRun(start, p.pos+end+3)
	p.pos += end + 3
	p.attach(parent, p.newNode(Comment, data))
	return nil
}

// parseElement parses one element starting at '<' and attaches it.
func (p *Parser) parseElement(parent *Node) error {
	if err := p.expect("<"); err != nil {
		return err
	}
	name, err := p.scanName()
	if err != nil {
		return err
	}
	el := p.newNode(Element, "")
	el.Name = name
	el.Prefix, el.Local = SplitName(name)
	p.attach(parent, el)

	// Attributes.
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.src[p.pos]
		p.emitDecision(pcAttrMore, isNameStart(c))
		if c == '/' || c == '>' {
			break
		}
		aname, err := p.scanName()
		if err != nil {
			return err
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipSpace()
		aval, err := p.scanAttrValue()
		if err != nil {
			return err
		}
		for _, a := range el.Attrs {
			p.emitDecision(pcAttrDup, a.Name == aname)
			if a.Name == aname {
				return p.errf("duplicate attribute %q", aname)
			}
		}
		el.Attrs = append(el.Attrs, Attr{Name: aname, Value: aval})
		p.emitAttr(aname, aval)
	}

	el.NS = el.LookupNamespace(el.Prefix)

	if p.peekIs("/>") {
		p.pos += 2
		p.emitDecision(pcSelfClose, true)
		return nil
	}
	p.emitDecision(pcSelfClose, false)
	if err := p.expect(">"); err != nil {
		return err
	}

	// Content.
	for {
		if p.pos >= len(p.src) {
			return p.errf("unterminated element <%s>", name)
		}
		switch {
		case p.peekIs("</"):
			p.pos += 2
			cname, err := p.scanName()
			if err != nil {
				return err
			}
			match := cname == name
			p.emitNameCompare(cname, name, match)
			if !match {
				return p.errf("mismatched end tag </%s>, open <%s>", cname, name)
			}
			p.skipSpace()
			return p.expect(">")
		case p.peekIs("<!--"):
			if err := p.parseComment(el); err != nil {
				return err
			}
		case p.peekIs("<![CDATA["):
			if err := p.parseCDATA(el); err != nil {
				return err
			}
		case p.peekIs("<?"):
			if err := p.parsePI(el); err != nil {
				return err
			}
		case p.src[p.pos] == '<':
			if err := p.parseElement(el); err != nil {
				return err
			}
		default:
			if err := p.parseText(el); err != nil {
				return err
			}
		}
	}
}

func (p *Parser) parsePI(parent *Node) error {
	start := p.pos
	p.pos += 2
	end := strings.Index(string(p.src[p.pos:]), "?>")
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	data := string(p.src[p.pos : p.pos+end])
	p.emitTextRun(start, p.pos+end+2)
	p.pos += end + 2
	p.attach(parent, p.newNode(ProcInst, data))
	return nil
}

func (p *Parser) parseCDATA(parent *Node) error {
	start := p.pos
	p.pos += len("<![CDATA[")
	end := strings.Index(string(p.src[p.pos:]), "]]>")
	if end < 0 {
		return p.errf("unterminated CDATA section")
	}
	data := string(p.src[p.pos : p.pos+end])
	p.emitTextRun(start, p.pos+end+3)
	p.pos += end + 3
	p.attach(parent, p.newNode(Text, data))
	return nil
}

func (p *Parser) parseText(parent *Node) error {
	start := p.pos
	var b strings.Builder
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		if p.src[p.pos] == '&' {
			p.emitTextRun(start, p.pos)
			b.Write(p.src[start:p.pos])
			r, err := p.scanEntity()
			if err != nil {
				return err
			}
			b.WriteString(r)
			start = p.pos
			continue
		}
		p.pos++
	}
	p.emitTextRun(start, p.pos)
	b.Write(p.src[start:p.pos])
	if b.Len() > 0 {
		p.attach(parent, p.newNode(Text, b.String()))
	}
	return nil
}
