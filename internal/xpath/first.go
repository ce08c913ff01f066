package xpath

import "repro/internal/xmldom"

// forwardPath returns root, for the first-match walk, if it is a location
// path whose steps are all predicate-free and on the child,
// descendant-or-self, self or attribute axis, and nil otherwise. From a
// context node such a step reaches only the node itself, its attributes
// and its descendants, none of which comes before it in document order.
// Each // followed by a child step becomes one descendant step, so the
// walk tests a node against the child step once, as a descendant, instead
// of once more as a child of every node the // step offers.
func forwardPath(root node) *pathExpr {
	p, ok := root.(*pathExpr)
	if !ok {
		return nil
	}
	fwd := &pathExpr{absolute: p.absolute}
	for i := 0; i < len(p.steps); i++ {
		st := p.steps[i]
		if len(st.preds) > 0 || st.ax == axisParent {
			return nil
		}
		if st.ax == axisDescendantOrSelf && st.tk == testNode && i+1 < len(p.steps) {
			if next := p.steps[i+1]; next.ax == axisChild && len(next.preds) == 0 {
				st = &step{ax: axisDescendant, tk: next.tk, name: next.name}
				i++
			}
		}
		fwd.steps = append(fwd.steps, st)
	}
	return fwd
}

// firstWalk finds the first node, in document order, that a forward path
// selects, without building a node-set: the unmetered EvalString and
// EvalBool. It walks depth-first, which is not document order across
// steps (in <a><b><c/></b><c/></a>, //*/c meets a's c before b's), so it
// keeps the best match so far and skips every candidate at or after it:
// whatever a forward path reaches from a node is at or after that node,
// and an axis hands out its candidates in document order, so the first
// one skipped ends its axis. Every tree node carries Ord, so the test is
// one comparison. With exists set (EvalBool) the first match ends the walk.
//
// The result is held as its Ord plus the node, or for an attribute its
// value: the attribute axis mints candidate nodes on the stack, and
// keeping one would move every candidate to the heap.
type firstWalk struct {
	ev     *Evaluator
	steps  []*step
	exists bool

	found bool
	ord   uint32
	node  *xmldom.Node // nil when the match is an attribute
	attr  string       // the matched attribute's value
}

// firstMatch runs the walk for path p from ctx.
func (ev *Evaluator) firstMatch(p *pathExpr, ctx *xmldom.Node, exists bool) firstWalk {
	f := firstWalk{ev: ev, steps: p.steps, exists: exists}
	if p.absolute {
		ctx = ctx.Root()
	}
	f.visit(0, ctx)
	return f
}

// value is the XPath string-value of the match ("" when there is none).
func (f *firstWalk) value() string {
	if f.node != nil {
		return nodeStringValue(f.node)
	}
	return f.attr
}

// visit walks steps[i:] from x, which comes before the best match so far.
func (f *firstWalk) visit(i int, x *xmldom.Node) {
	if i == len(f.steps) {
		f.found, f.ord, f.node = true, x.Ord, x
		return
	}
	st := f.steps[i]
	switch st.ax {
	case axisSelf:
		f.try(i, st, x)
	case axisChild:
		for _, c := range x.Children {
			if !f.try(i, st, c) {
				return
			}
		}
	case axisDescendantOrSelf:
		f.descend(i, st, x)
	case axisDescendant:
		for _, c := range x.Children {
			if !f.descend(i, st, c) {
				return
			}
		}
	case axisAttribute:
		// x's attributes share its Ord, so they too come before the best
		// match, and the first that survives the path is the answer here.
		for _, a := range x.Attrs {
			cand := xmldom.Node{Kind: xmldom.Text, Ord: x.Ord, Name: a.Name, Data: a.Value, Parent: x}
			if f.ev.nodeTest(st, &cand) && f.attrTail(i+1, &cand) {
				f.found, f.ord, f.node, f.attr = true, x.Ord, nil, a.Value
				return
			}
		}
	}
}

// descend offers x and then its subtree, in document order, to step i;
// false once a candidate was skipped, which ends the walk.
func (f *firstWalk) descend(i int, st *step, x *xmldom.Node) bool {
	if !f.try(i, st, x) {
		return false
	}
	for _, c := range x.Children {
		if !f.descend(i, st, c) {
			return false
		}
	}
	return true
}

// try offers candidate y of step i: false when y cannot come before the
// best match, and so neither can any later candidate of the same axis.
func (f *firstWalk) try(i int, st *step, y *xmldom.Node) bool {
	if f.found && (f.exists || y.Ord >= f.ord) {
		return false
	}
	if f.ev.nodeTest(st, y) {
		f.visit(i+1, y)
	}
	return true
}

// attrTail reports whether attribute node a survives steps[i:]. An
// attribute has no children, descendants or attributes, so a child,
// descendant or attribute step drops it, and a self or descendant-or-self
// step keeps it if it passes the node test.
func (f *firstWalk) attrTail(i int, a *xmldom.Node) bool {
	for _, st := range f.steps[i:] {
		if (st.ax != axisSelf && st.ax != axisDescendantOrSelf) || !f.ev.nodeTest(st, a) {
			return false
		}
	}
	return true
}
