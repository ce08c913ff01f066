// Package xmldom is a from-scratch, namespace-aware XML 1.0 parser and
// document object model. It is the foundation of the paper's XML server
// application: XPath evaluation (content-based routing) and schema
// validation both operate on the tree this package builds.
//
// One grammar, one tree builder: Tokenizer alone decides what is
// well-formed, and StreamParser (AcquireStreamParser) alone turns its
// tokens into nodes — pooled node slabs, strings as views into the source.
// Parse is the convenience form: a fresh StreamParser over a private copy
// of the input — schema loading, examples and tests, not per-message work.
// ParseMetered is the simulator's form: the same parse, also emitting the
// micro-op stream of an equivalent compiled parser — loads walking the
// input buffer, stores building the tree, branches with the scanner's
// actual outcomes — which is what lets the simulator characterize XML
// parsing the way the paper's VTune measurements do.
package xmldom

import (
	"fmt"
	"strings"
)

// NodeKind classifies tree nodes.
type NodeKind uint8

const (
	// Document is the synthetic root above the document element.
	Document NodeKind = iota
	// Element is a tag.
	Element
	// Text is character data (entity references already resolved).
	Text
	// Comment is a <!-- --> node.
	Comment
	// ProcInst is a processing instruction.
	ProcInst
)

func (k NodeKind) String() string {
	switch k {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case ProcInst:
		return "proc-inst"
	}
	return "invalid"
}

// Attr is one attribute.
type Attr struct {
	Name  string // as written, possibly prefixed
	Value string
}

// Node is one tree node.
type Node struct {
	Kind NodeKind
	// Ord is the node's pre-order index in its document (the document
	// node is 0), stamped by the tree builder: a < b in document order
	// iff a.Ord < b.Ord, which is how XPath orders node-sets without
	// walking the tree. It sits in Kind's padding, so it costs no memory.
	Ord      uint32
	Name     string // element: full name as written (prefix:local)
	Local    string // element: local part
	Attrs    []Attr
	Children []*Node
	Parent   *Node
	Data     string // text/comment/PI content

	// SimAddr is the node's synthetic address in the simulated heap;
	// zero when the tree was not built by ParseMetered.
	SimAddr uint64
}

// Prefix returns an element's namespace prefix ("" if none or not an
// element), split off Name on each call.
func (n *Node) Prefix() string {
	if n.Kind != Element {
		return ""
	}
	prefix, _ := SplitName(n.Name)
	return prefix
}

// Namespace resolves an element's namespace URI ("" if none or not an
// element) on each call, by walking the xmlns declarations in scope: no
// consumer of the live path needs it, so the builders do not store it.
func (n *Node) Namespace() string {
	if n.Kind != Element {
		return ""
	}
	return lookupNS(n, n.Prefix())
}

// Root walks up to the document node.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// DocumentElement returns the top-level element of a Document node (nil
// if absent).
func (n *Node) DocumentElement() *Node {
	for _, c := range n.Children {
		if c.Kind == Element {
			return c
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the element children, optionally filtered by local
// name ("" matches all).
func (n *Node) ChildElements(local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element && (local == "" || c.Local == local) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child with the given local
// name ("" matches any), or nil.
func (n *Node) FirstChildElement(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && (local == "" || c.Local == local) {
			return c
		}
	}
	return nil
}

// TextContent concatenates all descendant text, the XPath string-value of
// an element. A text node, and an element whose only child is one, return
// that Data as is — in a StreamParser tree a view into the source, valid as
// long as the tree — and only mixed content is concatenated into a copy.
func (n *Node) TextContent() string {
	if n.Kind == Text {
		return n.Data
	}
	switch len(n.Children) {
	case 0:
		return ""
	case 1:
		if c := n.Children[0]; c.Kind == Text {
			return c.Data
		}
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Data)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// Walk visits n and every descendant in document order; returning false
// from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// LookupNamespace resolves a prefix in scope at this node by walking the
// xmlns declarations up the ancestor chain ("" resolves the default
// namespace). The empty string return means unbound.
func (n *Node) LookupNamespace(prefix string) string {
	return lookupNS(n, prefix)
}

// lookupNS compares each attribute name against "xmlns" / "xmlns:"+prefix
// in place (matchXmlns) rather than building the target string, so a
// lookup allocates nothing.
func lookupNS(n *Node, prefix string) string {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Kind != Element && cur.Kind != Document {
			continue
		}
		for _, a := range cur.Attrs {
			if matchXmlns(a.Name, prefix) {
				return a.Value
			}
		}
	}
	return ""
}

func matchXmlns(name, prefix string) bool {
	if prefix == "" {
		return name == "xmlns"
	}
	return len(name) == len("xmlns:")+len(prefix) &&
		name[:len("xmlns:")] == "xmlns:" && name[len("xmlns:"):] == prefix
}

// SplitName splits a qualified name into prefix and local part.
func SplitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// parseError reports a malformed document with byte offset context.
type parseError struct {
	Offset int
	Msg    string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("xmldom: offset %d: %s", e.Offset, e.Msg)
}
