package xpath

import "fmt"

// Expr is a compiled XPath expression.
type Expr struct {
	Source string
	root   node
	// forward is root, rewritten for the first-match walk, when it is a
	// path the unmetered EvalString and EvalBool answer with that walk
	// (forwardPath); else nil.
	forward *pathExpr
}

// node is an AST node.
type node interface{ String() string }

// axis identifies the traversal direction of a step.
type axis int

const (
	axisChild axis = iota
	axisDescendantOrSelf
	axisAttribute
	axisSelf
	axisParent
	// axisDescendant is never parsed: forwardPath fuses a //-step and the
	// child step after it into one (descendant::t is
	// descendant-or-self::node()/child::t) for the first-match walk.
	axisDescendant
)

func (a axis) String() string {
	switch a {
	case axisChild:
		return "child"
	case axisDescendantOrSelf:
		return "descendant-or-self"
	case axisAttribute:
		return "attribute"
	case axisSelf:
		return "self"
	case axisParent:
		return "parent"
	case axisDescendant:
		return "descendant"
	}
	return "?"
}

// testKind is the node-test variant of a step.
type testKind int

const (
	testName    testKind = iota // element (or attribute) by name
	testAny                     // *
	testText                    // text()
	testNode                    // node()
	testComment                 // comment()
)

// step is one location step: axis::test[pred]*
type step struct {
	ax    axis
	tk    testKind
	name  string // testName: local name or prefix:local; "*" prefix unsupported
	preds []node
}

func (s *step) String() string {
	return fmt.Sprintf("%s::%s/%d-preds", s.ax, s.name, len(s.preds))
}

// pathExpr is a location path: absolute or relative chain of steps.
type pathExpr struct {
	absolute bool
	steps    []*step
}

func (p *pathExpr) String() string {
	return fmt.Sprintf("path(abs=%v,%d steps)", p.absolute, len(p.steps))
}

// binExpr is a binary operation.
type binExpr struct {
	op   tokKind
	l, r node
}

func (b *binExpr) String() string { return fmt.Sprintf("bin(%d)", b.op) }

// negExpr is unary minus.
type negExpr struct{ x node }

func (n *negExpr) String() string { return "neg" }

// unionExpr is a node-set union.
type unionExpr struct{ l, r node }

func (u *unionExpr) String() string { return "union" }

// litExpr is a string literal.
type litExpr struct{ s string }

func (l *litExpr) String() string { return fmt.Sprintf("lit(%q)", l.s) }

// numExpr is a numeric literal.
type numExpr struct{ v float64 }

func (n *numExpr) String() string { return fmt.Sprintf("num(%g)", n.v) }

// callExpr is a function call.
type callExpr struct {
	name string
	args []node
}

func (c *callExpr) String() string { return fmt.Sprintf("%s/%d", c.name, len(c.args)) }

// filterExpr applies predicates (and a trailing path) to a primary.
type filterExpr struct {
	primary node
	preds   []node
	trail   *pathExpr // may be nil
}

func (f *filterExpr) String() string { return "filter" }
