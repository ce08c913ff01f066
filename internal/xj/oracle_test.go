package xj

import (
	"strings"

	"repro/internal/xmldom"
)

// oracleTranslate is xj.go as of commit ec66e76, kept as the reference
// FuzzXJTranslate compares against: a strings.Builder copied out at the
// end, a partition slice and a text builder per element, a sameNamed slice
// per group. Only the names differ.
func oracleTranslate(n *xmldom.Node) ([]byte, error) {
	root := n
	if root.Kind == xmldom.Document {
		root = root.DocumentElement()
		if root == nil {
			return nil, errNoElement
		}
	}
	if root.Kind != xmldom.Element {
		return nil, errNoElement
	}
	var b strings.Builder
	b.Grow(256)
	b.WriteByte('{')
	oracleWriteString(&b, root.Name)
	b.WriteByte(':')
	oracleWriteElement(&b, root)
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// writeElement emits the JSON value for one element.
func oracleWriteElement(b *strings.Builder, n *xmldom.Node) {
	text, elems := oraclePartition(n)
	if len(n.Attrs) == 0 && len(elems) == 0 {
		// Leaf: plain string, or null when fully empty.
		if text == "" {
			b.WriteString("null")
			return
		}
		oracleWriteString(b, text)
		return
	}

	b.WriteByte('{')
	first := true
	comma := func() {
		if !first {
			b.WriteByte(',')
		}
		first = false
	}
	for _, a := range n.Attrs {
		comma()
		oracleWriteString(b, "@"+a.Name)
		b.WriteByte(':')
		oracleWriteString(b, a.Value)
	}
	if text != "" {
		comma()
		oracleWriteString(b, "#text")
		b.WriteByte(':')
		oracleWriteString(b, text)
	}
	// Group same-named siblings into arrays, preserving first-occurrence
	// order. Sibling counts are small (message trees), so the linear
	// name scan beats allocating a map per element.
	for i, c := range elems {
		if oracleIndexOfName(elems[:i], c.Name) >= 0 {
			continue // already emitted inside an earlier array
		}
		comma()
		oracleWriteString(b, c.Name)
		b.WriteByte(':')
		group := oracleSameNamed(elems[i:], c.Name)
		if len(group) == 1 && oracleIndexOfName(elems[i+1:], c.Name) < 0 {
			oracleWriteElement(b, c)
			continue
		}
		b.WriteByte('[')
		for k, g := range group {
			if k > 0 {
				b.WriteByte(',')
			}
			oracleWriteElement(b, g)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

// partition splits an element's children into trimmed concatenated text
// and the element children.
func oraclePartition(n *xmldom.Node) (text string, elems []*xmldom.Node) {
	var tb strings.Builder
	for _, c := range n.Children {
		switch c.Kind {
		case xmldom.Text:
			tb.WriteString(c.Data)
		case xmldom.Element:
			elems = append(elems, c)
		}
	}
	return strings.TrimSpace(tb.String()), elems
}

func oracleIndexOfName(elems []*xmldom.Node, name string) int {
	for i, e := range elems {
		if e.Name == name {
			return i
		}
	}
	return -1
}

func oracleSameNamed(elems []*xmldom.Node, name string) []*xmldom.Node {
	var out []*xmldom.Node
	for _, e := range elems {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// writeString emits s as a JSON string without the HTML-safe escaping
// json.Marshal applies (&, <, > stay literal — the translated body is
// served as application/json, not embedded in HTML).
func oracleWriteString(b *strings.Builder, s string) {
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b.WriteString(s[start:i])
		switch c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteString(`\u00`)
			b.WriteByte(hexDigits[c>>4])
			b.WriteByte(hexDigits[c&0xf])
		}
		start = i + 1
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}
