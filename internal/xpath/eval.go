package xpath

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

// Evaluator runs compiled expressions against a document, optionally
// emitting the micro-op stream of the traversal: every node visited costs
// pointer-chasing loads on the node's simulated address, every name test a
// short compare with a data-dependent branch. This is the computation at
// the heart of the paper's CBR use case.
//
// An Evaluator holds no per-evaluation state and may be shared by any
// number of goroutines (given an emitter that may be); each call takes
// its node-set working memory from a pool.
type Evaluator struct {
	em trace.Emitter
	// metered is false when em discards everything (trace.IsNop): the live
	// path then pays no emit call per node visited or name tested.
	metered bool
}

var (
	evalCode    = trace.NewCodeRegion(2048)
	pcVisit     = evalCode.Site()
	pcNameTest  = evalCode.Site()
	pcKindTest  = evalCode.Site()
	pcPredTest  = evalCode.Site()
	pcCmpBranch = evalCode.Site()
	pcFuncDisp  = evalCode.Site()
)

// NewEvaluator returns an evaluator emitting to em (nil or trace.Nop{} for
// plain library use).
func NewEvaluator(em trace.Emitter) *Evaluator {
	return &Evaluator{em: em, metered: !trace.IsNop(em)}
}

// run evaluates e in a pooled scratch. A node-set result is a view into
// the scratch: the caller converts or copies it, then calls s.release().
func (ev *Evaluator) run(e *Expr, ctx *xmldom.Node) (v Value, s *scratch, err error) {
	s = scratchPool.Get().(*scratch)
	v, err = ev.eval(e.root, evalCtx{node: ctx, pos: 1, size: 1, s: s})
	return v, s, err
}

// Eval evaluates a compiled expression with ctx as the context node. A
// node-set result is copied out of the scratch: the caller owns
// Value.Nodes.
func (ev *Evaluator) Eval(e *Expr, ctx *xmldom.Node) (Value, error) {
	v, s, err := ev.run(e, ctx)
	if len(v.Nodes) == 0 {
		v.Nodes = nil
	} else {
		v.Nodes = append([]*xmldom.Node(nil), v.Nodes...)
	}
	s.release()
	return v, err
}

// EvalString evaluates and converts to string. The conversion reads the
// first node straight from scratch, so a path that selects a text or
// attribute node allocates nothing: the result is that node's Data, which
// lives as long as the tree does (see the package comment).
func (ev *Evaluator) EvalString(e *Expr, ctx *xmldom.Node) (string, error) {
	v, s, err := ev.run(e, ctx)
	str := ""
	if err == nil {
		str = v.String()
	}
	s.release()
	return str, err
}

// EvalBool evaluates and converts to boolean, without copying a node-set
// result.
func (ev *Evaluator) EvalBool(e *Expr, ctx *xmldom.Node) (bool, error) {
	v, s, err := ev.run(e, ctx)
	b := err == nil && v.Boolean()
	s.release()
	return b, err
}

// evalCtx is the XPath evaluation context plus the scratch every node-set
// of this evaluation lives in. Node-set Values inside an evaluation are
// views into s, valid until the buffer they sit in is released.
type evalCtx struct {
	node *xmldom.Node
	pos  int // 1-based position()
	size int // last()
	s    *scratch
}

func (ev *Evaluator) eval(n node, c evalCtx) (Value, error) {
	switch x := n.(type) {
	case *litExpr:
		return stringValue(x.s), nil
	case *numExpr:
		return numberValue(x.v), nil
	case *negExpr:
		v, err := ev.eval(x.x, c)
		if err != nil {
			return Value{}, err
		}
		ev.alu(1)
		return numberValue(-v.Number()), nil
	case *binExpr:
		return ev.evalBin(x, c)
	case *unionExpr:
		out := c.s.take() // below the operands, so it outlives their release
		mark := c.s.used
		l, err := ev.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		r, err := ev.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNodeSet() || !r.IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: union of non-node-sets")
		}
		out.ns = append(append(out.ns, l.Nodes...), r.Nodes...)
		c.s.used = mark
		if !runInOrder(out.ns, len(l.Nodes)) {
			out.ns = sortDocOrder(out.ns)
		}
		return nodeSetValue(out.ns), nil
	case *pathExpr:
		ns, err := ev.evalPath(x, c)
		if err != nil {
			return Value{}, err
		}
		return nodeSetValue(ns), nil
	case *callExpr:
		return ev.evalCall(x, c)
	case *filterExpr:
		return ev.evalFilter(x, c)
	}
	return Value{}, fmt.Errorf("xpath: unknown AST node %T", n)
}

func (ev *Evaluator) evalBin(x *binExpr, c evalCtx) (Value, error) {
	// Short-circuit booleans.
	if x.op == tokAnd || x.op == tokOr {
		l, err := ev.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		lb := l.Boolean()
		ev.branch(pcCmpBranch, lb)
		if x.op == tokAnd && !lb {
			return boolValue(false), nil
		}
		if x.op == tokOr && lb {
			return boolValue(true), nil
		}
		r, err := ev.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Boolean()), nil
	}
	l, err := ev.eval(x.l, c)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(x.r, c)
	if err != nil {
		return Value{}, err
	}
	return ev.binOp(x.op, l, r)
}

// binOp applies a comparison or arithmetic operator to evaluated operands.
func (ev *Evaluator) binOp(op tokKind, l, r Value) (Value, error) {
	switch op {
	case tokEq, tokNeq, tokLt, tokLte, tokGt, tokGte:
		res := compare(op, l, r)
		ev.alu(4)
		ev.branch(pcCmpBranch, res)
		return boolValue(res), nil
	case tokPlus:
		ev.alu(1)
		return numberValue(l.Number() + r.Number()), nil
	case tokMinus:
		ev.alu(1)
		return numberValue(l.Number() - r.Number()), nil
	case tokStar:
		ev.alu(3)
		return numberValue(l.Number() * r.Number()), nil
	case tokDiv:
		ev.alu(20)
		return numberValue(l.Number() / r.Number()), nil
	case tokMod:
		ev.alu(20)
		return numberValue(math.Mod(l.Number(), r.Number())), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator")
}

func (ev *Evaluator) evalFilter(x *filterExpr, c evalCtx) (Value, error) {
	var out *nodeBuf
	if x.trail != nil {
		out = c.s.take() // below the primary, so it outlives its release
	}
	mark := c.s.used
	v, err := ev.eval(x.primary, c)
	if err != nil {
		return Value{}, err
	}
	if !v.IsNodeSet() {
		return Value{}, fmt.Errorf("xpath: predicate/path applied to non-node-set")
	}
	ns := v.Nodes
	for _, pred := range x.preds {
		ns, err = ev.filterPred(ns, pred, c.s)
		if err != nil {
			return Value{}, err
		}
	}
	if x.trail == nil {
		return nodeSetValue(ns), nil
	}
	sorted := true
	inner := c.s.used
	for _, n := range ns {
		sub, err := ev.evalPath(x.trail, evalCtx{node: n, pos: 1, size: 1, s: c.s})
		if err != nil {
			return Value{}, err
		}
		run := len(out.ns)
		out.ns = append(out.ns, sub...)
		c.s.used = inner
		sorted = sorted && runInOrder(out.ns, run)
	}
	c.s.used = mark
	if !sorted {
		out.ns = sortDocOrder(out.ns)
	}
	return nodeSetValue(out.ns), nil
}

// evalPath runs a location path from the context node. Each step walks
// its axis from every context node in turn and appends the matches to the
// next context set. A context's matches come out in document order on
// every supported axis, so the step's result is in document order unless
// one context's run starts at or before the previous run's last node; only
// then is it sorted (and de-duplicated) by Node.Ord.
func (ev *Evaluator) evalPath(p *pathExpr, c evalCtx) ([]*xmldom.Node, error) {
	start := c.node
	if p.absolute {
		start = c.node.Root()
	}
	cur, next := c.s.take(), c.s.take()
	cur.ns = append(cur.ns, start)
	for _, st := range p.steps {
		next.ns = next.ns[:0]
		sorted := true
		for _, n := range cur.ns {
			run := len(next.ns)
			ev.stepFrom(st, n, next)
			// Predicates with position semantics relative to this
			// context node's matched candidates.
			for _, pred := range st.preds {
				kept, err := ev.filterPred(next.ns[run:], pred, c.s)
				if err != nil {
					return nil, err
				}
				next.ns = next.ns[:run+len(kept)]
			}
			sorted = sorted && runInOrder(next.ns, run)
		}
		if !sorted {
			next.ns = sortDocOrder(next.ns)
		}
		cur, next = next, cur
	}
	return cur.ns, nil
}

// filterPred keeps, in place, the nodes of ns the predicate holds for;
// position() and last() are relative to ns as passed.
func (ev *Evaluator) filterPred(ns []*xmldom.Node, pred node, s *scratch) ([]*xmldom.Node, error) {
	kept := 0
	mark := s.used
	for i, n := range ns {
		v, err := ev.eval(pred, evalCtx{node: n, pos: i + 1, size: len(ns), s: s})
		if err != nil {
			return nil, err
		}
		var keep bool
		if v.kindOf == kindNumber {
			keep = int(v.Num) == i+1 // positional predicate
		} else {
			keep = v.Boolean()
		}
		s.used = mark
		ev.alu(2)
		ev.branch(pcPredTest, keep)
		if keep {
			ns[kept] = n
			kept++
		}
	}
	return ns[:kept], nil
}

// stepFrom walks step st's axis from n and appends the nodes passing its
// node test to out, in document order, emitting the traversal's
// pointer-chasing loads.
func (ev *Evaluator) stepFrom(st *step, n *xmldom.Node, out *nodeBuf) {
	if st.ax == axisDescendantOrSelf {
		ev.descend(st, n, out)
		return
	}
	ev.visit(n)
	switch st.ax {
	case axisSelf:
		if ev.nodeTest(st, n) {
			out.ns = append(out.ns, n)
		}
	case axisParent:
		if n.Parent != nil && ev.nodeTest(st, n.Parent) {
			out.ns = append(out.ns, n.Parent)
		}
	case axisChild:
		for _, c := range n.Children {
			if ev.nodeTest(st, c) {
				out.ns = append(out.ns, c)
			}
		}
	case axisAttribute:
		for _, a := range n.Attrs {
			// Attributes live in node-sets as transient text-like nodes
			// (see isAttr); only a match is copied to the heap.
			cand := xmldom.Node{Kind: xmldom.Text, Ord: n.Ord, Name: a.Name, Data: a.Value, Parent: n, SimAddr: n.SimAddr}
			if ev.nodeTest(st, &cand) {
				attr := cand
				out.ns = append(out.ns, &attr)
			}
		}
	}
}

// descend is stepFrom for descendant-or-self: n, then its subtree, in
// document order.
func (ev *Evaluator) descend(st *step, n *xmldom.Node, out *nodeBuf) {
	ev.visit(n)
	if ev.nodeTest(st, n) {
		out.ns = append(out.ns, n)
	}
	for _, c := range n.Children {
		ev.descend(st, c, out)
	}
}

// alu and branch emit one micro-op group when the evaluator is metered.
func (ev *Evaluator) alu(n int) {
	if ev.metered {
		ev.em.ALU(n)
	}
}

func (ev *Evaluator) branch(pc uint64, taken bool) {
	if ev.metered {
		ev.em.Branch(pc, taken)
	}
}

// visit charges the cost of touching one tree node: pointer-chasing loads
// on the node and its child vector plus kind dispatch.
func (ev *Evaluator) visit(n *xmldom.Node) {
	if !ev.metered {
		return
	}
	ev.em.Load(n.SimAddr, 3)
	ev.em.ALU(11)
	ev.em.Branch(pcVisit, n.Kind == xmldom.Element)
}

// nodeTest applies a step's node test, emitting the compare.
func (ev *Evaluator) nodeTest(st *step, n *xmldom.Node) bool {
	switch st.tk {
	case testAny:
		ok := st.ax == axisAttribute || n.Kind == xmldom.Element
		ev.branch(pcKindTest, ok)
		return ok
	case testText:
		ok := n.Kind == xmldom.Text
		ev.branch(pcKindTest, ok)
		return ok
	case testComment:
		ok := n.Kind == xmldom.Comment
		ev.branch(pcKindTest, ok)
		return ok
	case testNode:
		return true
	case testName:
		var ok bool
		if st.ax == axisAttribute {
			ok = n.Name == st.name
		} else if n.Kind == xmldom.Element {
			// Accept either exact qualified match or local-name match,
			// the pragmatic prefix handling of an AON device.
			ok = n.Name == st.name || n.Local == st.name
		}
		if ev.metered {
			ev.em.Load(n.SimAddr+24, 1)
			ev.em.ALU(2 + len(st.name)/trace.WordBytes)
			ev.em.Branch(pcNameTest, ok)
		}
		return ok
	}
	return false
}

// evalCall dispatches the XPath core function library.
func (ev *Evaluator) evalCall(x *callExpr, c evalCtx) (Value, error) {
	ev.alu(3)
	ev.branch(pcFuncDisp, true)
	var argBuf [4]Value // enough for every core function but a long concat()
	argVals := argBuf[:0]
	for _, a := range x.args {
		v, err := ev.eval(a, c)
		if err != nil {
			return Value{}, err
		}
		argVals = append(argVals, v)
	}
	return ev.call(x, c, argVals)
}

// call applies core function x.name to its evaluated arguments.
func (ev *Evaluator) call(x *callExpr, c evalCtx, argVals []Value) (Value, error) {
	arg := func(i int) Value {
		if i < len(argVals) {
			return argVals[i]
		}
		// Default argument: the context node.
		single := c.s.take()
		single.ns = append(single.ns, c.node)
		return nodeSetValue(single.ns)
	}
	switch x.name {
	case "last":
		return numberValue(float64(c.size)), nil
	case "position":
		return numberValue(float64(c.pos)), nil
	case "count":
		if len(argVals) != 1 || !argVals[0].IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: count() wants one node-set")
		}
		return numberValue(float64(len(argVals[0].Nodes))), nil
	case "name", "local-name":
		ns := arg(0)
		if !ns.IsNodeSet() || len(ns.Nodes) == 0 {
			return stringValue(""), nil
		}
		n := ns.Nodes[0]
		if x.name == "local-name" {
			return stringValue(n.Local), nil
		}
		return stringValue(n.Name), nil
	case "string":
		return stringValue(arg(0).String()), nil
	case "number":
		return numberValue(arg(0).Number()), nil
	case "boolean":
		if len(argVals) != 1 {
			return Value{}, fmt.Errorf("xpath: boolean() wants one argument")
		}
		return boolValue(argVals[0].Boolean()), nil
	case "not":
		if len(argVals) != 1 {
			return Value{}, fmt.Errorf("xpath: not() wants one argument")
		}
		return boolValue(!argVals[0].Boolean()), nil
	case "true":
		return boolValue(true), nil
	case "false":
		return boolValue(false), nil
	case "concat":
		var b strings.Builder
		for _, v := range argVals {
			b.WriteString(v.String())
		}
		ev.alu(b.Len() / 2)
		return stringValue(b.String()), nil
	case "contains":
		s, sub := arg(0).String(), arg(1).String()
		ok := strings.Contains(s, sub)
		ev.alu(len(s))
		ev.branch(pcCmpBranch, ok)
		return boolValue(ok), nil
	case "starts-with":
		s, pre := arg(0).String(), arg(1).String()
		ok := strings.HasPrefix(s, pre)
		ev.alu(len(pre))
		ev.branch(pcCmpBranch, ok)
		return boolValue(ok), nil
	case "string-length":
		s := arg(0).String()
		return numberValue(float64(len(s))), nil
	case "normalize-space":
		s := strings.Join(strings.Fields(arg(0).String()), " ")
		ev.alu(len(s))
		return stringValue(s), nil
	case "substring":
		if len(argVals) < 2 {
			return Value{}, fmt.Errorf("xpath: substring() wants 2 or 3 arguments")
		}
		s := argVals[0].String()
		start := int(math.Round(argVals[1].Number())) - 1
		end := len(s)
		if len(argVals) == 3 {
			end = start + int(math.Round(argVals[2].Number()))
		}
		if start < 0 {
			start = 0
		}
		if end > len(s) {
			end = len(s)
		}
		if start >= end {
			return stringValue(""), nil
		}
		return stringValue(s[start:end]), nil
	case "sum":
		if len(argVals) != 1 || !argVals[0].IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: sum() wants one node-set")
		}
		total := 0.0
		for _, n := range argVals[0].Nodes {
			total += stringValue(nodeStringValue(n)).Number()
		}
		return numberValue(total), nil
	case "floor":
		return numberValue(math.Floor(arg(0).Number())), nil
	case "ceiling":
		return numberValue(math.Ceil(arg(0).Number())), nil
	case "round":
		return numberValue(math.Round(arg(0).Number())), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown function %s()", x.name)
}
