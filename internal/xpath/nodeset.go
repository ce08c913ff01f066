package xpath

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/poison"
	"repro/internal/xmldom"
)

// nodeBuf is one growable node-set buffer of a scratch.
type nodeBuf struct{ ns []*xmldom.Node }

// scratch is the node-set working memory of one top-level evaluation: a
// stack of buffers handed out by take and given back, newest first, by
// resetting used to an earlier mark. A nested evaluation (a path inside a
// predicate) takes buffers above its caller's, so the two never share one;
// whoever consumed a nested result releases it, which keeps the stack as
// deep as the expression nests, not as long as the node-sets it loops over.
type scratch struct {
	bufs []*nodeBuf
	used int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// take returns an empty buffer, valid until used drops back below it.
func (s *scratch) take() *nodeBuf {
	if s.used == len(s.bufs) {
		s.bufs = append(s.bufs, new(nodeBuf))
	}
	b := s.bufs[s.used]
	s.used++
	b.ns = b.ns[:0]
	return b
}

// release returns the whole scratch to the pool; nothing handed out by
// take may be read afterwards. The buffers keep their stale node pointers
// (clearing them would cost a pass per evaluation); the pool drops idle
// scratches at the next collections, so a tree is pinned no longer than
// that. The race build does clear them (internal/poison), so a node-set
// view read after its release dereferences nil instead of a stale node.
func (s *scratch) release() {
	if poison.Enabled {
		for _, b := range s.bufs {
			clear(b.ns[:cap(b.ns)])
		}
	}
	s.used = 0
	scratchPool.Put(s)
}

// isAttr reports whether n is one of the transient nodes the attribute
// axis puts in node-sets: text-like, named after the attribute, Parent the
// owning element (which does not list it as a child) and Ord the owner's.
func isAttr(n *xmldom.Node) bool { return n.Kind == xmldom.Text && n.Name != "" }

// attrRank orders an element (0) before its attributes (1 + index), which
// all share its Ord and precede its children.
func attrRank(n *xmldom.Node) int {
	if !isAttr(n) {
		return 0
	}
	for i, a := range n.Parent.Attrs {
		if a.Name == n.Name {
			return 1 + i
		}
	}
	return 1
}

// docCmp compares two nodes of one document by document order.
func docCmp(a, b *xmldom.Node) int {
	if a.Ord != b.Ord {
		return cmp.Compare(a.Ord, b.Ord)
	}
	return attrRank(a) - attrRank(b)
}

// sameNode is node identity: pointer identity, except that every
// evaluation of the attribute axis mints fresh nodes, so attributes are
// the same node when they are the same attribute of the same element.
func sameNode(a, b *xmldom.Node) bool {
	return a == b || (isAttr(a) && isAttr(b) && a.Parent == b.Parent && a.Name == b.Name)
}

// runInOrder reports whether the run ns[run:], appended to the document-
// ordered ns[:run], left the whole in document order: both parts are
// ordered, so only the seam can be wrong.
func runInOrder(ns []*xmldom.Node, run int) bool {
	return run == 0 || run == len(ns) || docCmp(ns[run-1], ns[run]) < 0
}

// sortDocOrder puts a node-set in document order without duplicates, in
// place: O(k log k) on the k nodes, never a walk of the document.
func sortDocOrder(ns []*xmldom.Node) []*xmldom.Node {
	slices.SortStableFunc(ns, docCmp)
	return slices.CompactFunc(ns, sameNode)
}
