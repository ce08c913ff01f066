// Package xj translates an xmldom tree into a deterministic JSON
// document — the XJ (XML→JSON) protocol-translation use case. The
// mapping follows the common "BadgerFish-lite" convention:
//
//   - an element becomes a JSON object keyed by child element name
//   - attributes become "@name" string members
//   - character data becomes the member "#text"; an element with only
//     text (no attributes, no element children) collapses to a plain
//     JSON string
//   - repeated same-named sibling elements collapse into one array
//     member, in document order
//   - an element with no attributes, no text, and no children becomes
//     JSON null
//
// Output is fully deterministic: members appear in first-occurrence
// document order (attributes first, then "#text", then child names),
// never sorted, so byte-identical input yields byte-identical output —
// which the campaign layer relies on for reproducible measurements.
package xj

import (
	"bytes"
	"errors"
	"sync"

	"repro/internal/xmldom"
)

// ErrNoElement reports a document without a document element.
var ErrNoElement = errors.New("xj: document has no element to translate")

// scratch is one translation's working memory: the text of the element
// being written and, for Translate, the output under construction.
type scratch struct{ out, text []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Translate renders the document (or element) rooted at n as compact
// JSON: {"<rootName>": <value>}. The result is the caller's: it is copied
// out of pooled scratch once, and holds no view into the tree.
func Translate(n *xmldom.Node) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	var err error
	if s.out, err = s.appendTranslate(s.out[:0], n); err != nil {
		return nil, err
	}
	return bytes.Clone(s.out), nil
}

// AppendTranslate appends Translate's JSON for n to dst and returns the
// extended buffer — for a caller that owns a buffer to render into. On
// error dst is returned unchanged.
func AppendTranslate(dst []byte, n *xmldom.Node) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.appendTranslate(dst, n)
}

func (s *scratch) appendTranslate(b []byte, n *xmldom.Node) ([]byte, error) {
	root := n
	if root.Kind == xmldom.Document {
		root = root.DocumentElement()
		if root == nil {
			return b, ErrNoElement
		}
	}
	if root.Kind != xmldom.Element {
		return b, ErrNoElement
	}
	b = append(b, '{')
	b = appendString(b, root.Name)
	b = append(b, ':')
	b = s.appendElement(b, root)
	return append(b, '}'), nil
}

// appendElement appends the JSON value for one element.
func (s *scratch) appendElement(b []byte, n *xmldom.Node) []byte {
	// The element's text is its text children concatenated, then trimmed
	// as one string: white space — a multi-byte rune even — may straddle
	// the pieces. It sits in s.text until the first child is written.
	s.text = s.text[:0]
	elems := 0
	for _, c := range n.Children {
		switch c.Kind {
		case xmldom.Text:
			s.text = append(s.text, c.Data...)
		case xmldom.Element:
			elems++
		}
	}
	text := bytes.TrimSpace(s.text)

	if len(n.Attrs) == 0 && elems == 0 {
		// Leaf: plain string, or null when fully empty.
		if len(text) == 0 {
			return append(b, "null"...)
		}
		return appendString(b, text)
	}

	b = append(b, '{')
	open := len(b)
	for _, a := range n.Attrs {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, '"', '@')
		b = appendEscaped(b, a.Name)
		b = append(b, '"', ':')
		b = appendString(b, a.Value)
	}
	if len(text) > 0 {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, `"#text":`...)
		b = appendString(b, text)
	}
	// Group same-named siblings into arrays, preserving first-occurrence
	// order. Sibling counts are small (message trees), so the linear
	// name scans beat allocating a map or a slice per element.
	kids := n.Children
	for i, c := range kids {
		if c.Kind != xmldom.Element || hasNamed(kids[:i], c.Name) {
			continue // not a member, or already emitted inside an earlier array
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = appendString(b, c.Name)
		b = append(b, ':')
		if !hasNamed(kids[i+1:], c.Name) {
			b = s.appendElement(b, c)
			continue
		}
		b = append(b, '[')
		b = s.appendElement(b, c)
		for _, g := range kids[i+1:] {
			if g.Kind == xmldom.Element && g.Name == c.Name {
				b = append(b, ',')
				b = s.appendElement(b, g)
			}
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// hasNamed reports whether nodes holds an element called name.
func hasNamed(nodes []*xmldom.Node, name string) bool {
	for _, e := range nodes {
		if e.Kind == xmldom.Element && e.Name == name {
			return true
		}
	}
	return false
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string without the HTML-safe escaping
// json.Marshal applies (&, <, > stay literal — the translated body is
// served as application/json, not embedded in HTML).
func appendString[T string | []byte](b []byte, s T) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// appendEscaped appends the inside of s's JSON string.
func appendEscaped[T string | []byte](b []byte, s T) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, `\"`...)
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			b = append(b, `\u00`...)
			b = append(b, hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	return append(b, s[start:]...)
}
