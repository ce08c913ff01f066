package xpath

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldom"
)

// oracle is the evaluator's previous node-set algorithm, kept as the
// reference the linear one is compared against: every step materialises
// its candidates in fresh slices, and a union recovers document order by
// walking the whole tree into a map — no Node.Ord, no scratch. It shares
// only what takes evaluated operands (binOp, call, nodeTest).
type oracle struct{ ev *Evaluator }

func (o oracle) eval(n node, c evalCtx) (Value, error) {
	switch x := n.(type) {
	case *negExpr:
		v, err := o.eval(x.x, c)
		return numberValue(-v.Number()), err
	case *binExpr:
		l, err := o.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		if (x.op == tokAnd && !l.Boolean()) || (x.op == tokOr && l.Boolean()) {
			return boolValue(l.Boolean()), nil
		}
		r, err := o.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		if x.op == tokAnd || x.op == tokOr {
			return boolValue(r.Boolean()), nil
		}
		return o.ev.binOp(x.op, l, r)
	case *unionExpr:
		l, err := o.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		r, err := o.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNodeSet() || !r.IsNodeSet() {
			return Value{}, fmt.Errorf("union of non-node-sets")
		}
		return nodeSetValue(oracleUnion(l.Nodes, r.Nodes)), nil
	case *pathExpr:
		ns, err := o.path(x, c)
		return nodeSetValue(ns), err
	case *callExpr:
		args := make([]Value, len(x.args))
		for i, a := range x.args {
			var err error
			if args[i], err = o.eval(a, c); err != nil {
				return Value{}, err
			}
		}
		return o.ev.call(x, c, args)
	case *filterExpr:
		v, err := o.eval(x.primary, c)
		if err != nil {
			return Value{}, err
		}
		if !v.IsNodeSet() {
			return Value{}, fmt.Errorf("predicate/path applied to non-node-set")
		}
		ns := v.Nodes
		for _, pred := range x.preds {
			if ns, err = o.filter(ns, pred, c); err != nil {
				return Value{}, err
			}
		}
		if x.trail != nil {
			var out []*xmldom.Node
			for _, n := range ns {
				sub, err := o.path(x.trail, evalCtx{node: n, pos: 1, size: 1, s: c.s})
				if err != nil {
					return Value{}, err
				}
				out = oracleUnion(out, sub)
			}
			ns = out
		}
		return nodeSetValue(ns), nil
	}
	return o.ev.eval(n, c) // literals
}

func (o oracle) path(p *pathExpr, c evalCtx) ([]*xmldom.Node, error) {
	start := c.node
	if p.absolute {
		start = start.Root()
	}
	current := []*xmldom.Node{start}
	for _, st := range p.steps {
		var next []*xmldom.Node
		for _, n := range current {
			var matched []*xmldom.Node
			for _, cand := range oracleAxis(st.ax, n) {
				if o.ev.nodeTest(st, cand) {
					matched = append(matched, cand)
				}
			}
			for _, pred := range st.preds {
				var err error
				if matched, err = o.filter(matched, pred, c); err != nil {
					return nil, err
				}
			}
			next = oracleUnion(next, matched)
		}
		current = next
	}
	return current, nil
}

func (o oracle) filter(ns []*xmldom.Node, pred node, c evalCtx) ([]*xmldom.Node, error) {
	var out []*xmldom.Node
	for i, n := range ns {
		v, err := o.eval(pred, evalCtx{node: n, pos: i + 1, size: len(ns), s: c.s})
		if err != nil {
			return nil, err
		}
		keep := v.Boolean()
		if v.kindOf == kindNumber {
			keep = int(v.Num) == i+1
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func oracleAxis(ax axis, n *xmldom.Node) []*xmldom.Node {
	var out []*xmldom.Node
	switch ax {
	case axisSelf:
		return []*xmldom.Node{n}
	case axisParent:
		if n.Parent != nil {
			return []*xmldom.Node{n.Parent}
		}
	case axisChild:
		return n.Children
	case axisAttribute:
		for _, a := range n.Attrs {
			out = append(out, &xmldom.Node{Kind: xmldom.Text, Name: a.Name, Data: a.Value, Parent: n})
		}
	case axisDescendantOrSelf:
		n.Walk(func(d *xmldom.Node) bool { out = append(out, d); return true })
	}
	return out
}

// oracleUnion merges two node-sets in document order without duplicates,
// the order taken from a walk of the whole document: a node's index, with
// one slot after an element for each of its attributes.
func oracleUnion(a, b []*xmldom.Node) []*xmldom.Node {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	order := map[*xmldom.Node]int{}
	i := 0
	a[0].Root().Walk(func(n *xmldom.Node) bool {
		order[n] = i
		i += 1 + len(n.Attrs)
		return true
	})
	key := func(n *xmldom.Node) int {
		if !isAttr(n) {
			return order[n]
		}
		return order[n.Parent] + 1 + slices.IndexFunc(n.Parent.Attrs, func(a xmldom.Attr) bool { return a.Name == n.Name })
	}
	seen := map[int]bool{}
	var out []*xmldom.Node
	for _, n := range append(a[:len(a):len(a)], b...) {
		if k := key(n); !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// checkAgainstOracle evaluates e on ctx both ways and fails on any
// difference: error-ness, value kind, node-set (identity and order),
// string, number, boolean, and what EvalString/EvalBool return.
func checkAgainstOracle(t *testing.T, e *Expr, ctx *xmldom.Node) {
	t.Helper()
	ev := NewEvaluator(nil)
	want, wantErr := oracle{ev}.eval(e.root, evalCtx{node: ctx, pos: 1, size: 1, s: new(scratch)})
	got, err := ev.Eval(e, ctx)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: err %v, oracle err %v", e.Source, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.kindOf != want.kindOf || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%q: kind %d with %d nodes, oracle kind %d with %d nodes", e.Source, got.kindOf, len(got.Nodes), want.kindOf, len(want.Nodes))
	}
	for i, n := range got.Nodes {
		if w := want.Nodes[i]; !sameNode(n, w) || n.Data != w.Data {
			t.Fatalf("%q: node %d is %s %q (ord %d), oracle has %s %q (ord %d)", e.Source, i, n.Kind, n.Name+n.Data, n.Ord, w.Kind, w.Name+w.Data, w.Ord)
		}
	}
	sameNum := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	if got.String() != want.String() || got.Boolean() != want.Boolean() || !sameNum(got.Number(), want.Number()) {
		t.Fatalf("%q: %q/%v/%v, oracle %q/%v/%v", e.Source, got.String(), got.Boolean(), got.Number(), want.String(), want.Boolean(), want.Number())
	}
	if s, err := ev.EvalString(e, ctx); err != nil || s != want.String() {
		t.Fatalf("%q: EvalString %q, %v; oracle %q", e.Source, s, err, want.String())
	}
	if b, err := ev.EvalBool(e, ctx); err != nil || b != want.Boolean() {
		t.Fatalf("%q: EvalBool %v, %v; oracle %v", e.Source, b, err, want.Boolean())
	}
}

// nestingDocs are the shapes where one context's matches interleave with
// another's: same-name elements nested, parents reached from several
// siblings, descendants reached from nested ancestors, attributes.
var nestingDocs = []string{
	`<a><x><a><b/></a></x><b/></a>`,
	`<a><a><a><b>1</b></a><b>2</b></a><b>3</b></a>`,
	`<r><p><c>1</c><c>2</c></p><p><c>3</c><!--k--></p>t</r>`,
	`<r><a id="1"><q>x</q></a><a id="2" k="v"><q>y</q></a></r>`,
}

var nestingExprs = []string{
	`//a/b`, `//a//b`, `//a//a`, `//b/..`, `//b/../b`, `//*/..`, `//c/../c[2]`, `//*//text()`,
	`(//b)[1]/..`, `(//a)[last()]//b`, `(//a | //b)/..`, `//a/b | //a`, `//b | //a//b | /a`,
	`//@id`, `//q | //a/@id`, `//a/@id | //a/@id`, `//a/@*/..`, `//a[@id=2]/q`, `//@*/../@k | //q/..`,
	`count(//a//b)`, `string(//p[2]/c)`, `//p[c=3]/c | //p[1]/c[last()]`, `//node()[position() mod 2 = 0]`,
	`sum(//c)`, `//c[. > 1]/..`, `//p[count(c) > 1]//text()`, `name(//*[b][last()])`, `//comment()/..`,
}

func mustParse(t testing.TB, src []byte) *xmldom.Node {
	t.Helper()
	d, err := xmldom.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSameAnswersAsOracle compares the evaluator with the oracle over both
// expression tables, on seeded valid and invalid workload messages built
// by both tree builders and on the hand-written nesting documents.
func TestSameAnswersAsOracle(t *testing.T) {
	var exprs []*Expr
	for _, src := range append(append([]string{}, exprTable...), nestingExprs...) {
		exprs = append(exprs, MustCompile(src))
	}
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	var docs [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		docs = append(docs,
			workload.SOAPMessageSeeded(int(seed), workload.MessageBytes, seed),
			workload.InvalidSOAPMessageSeeded(int(seed), 2048, seed))
	}
	for _, d := range nestingDocs {
		docs = append(docs, []byte(d))
	}
	for _, src := range docs {
		dom := mustParse(t, src)
		stream, err := sp.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exprs {
			checkAgainstOracle(t, e, dom)
			checkAgainstOracle(t, e, stream)
			// A context node inside the document, not only its root.
			checkAgainstOracle(t, e, dom.DocumentElement().FirstChildElement(""))
		}
	}
}

// TestAttributesInUnions pins the two attribute defects of the map-based
// union: attributes sorted before every real node, and the fresh nodes of
// each attribute-axis evaluation never recognised as duplicates.
func TestAttributesInUnions(t *testing.T) {
	d := mustParse(t, []byte(`<r><a id="1"><q>x</q></a><a id="2"><q>y</q></a></r>`))
	var got []string
	for _, n := range evalNodes(t, d, `//q | //a/@id`) {
		got = append(got, n.Name+"="+nodeStringValue(n))
	}
	if want := []string{"id=1", "q=x", "id=2", "q=y"}; !slices.Equal(got, want) {
		t.Fatalf("//q | //a/@id = %v, want %v", got, want)
	}
	if s := evalStr(t, d, `string(//q | //a[2]/@id)`); s != "x" {
		t.Fatalf("string(//q | //a[2]/@id) = %q, want x", s)
	}
	if s := evalStr(t, d, `count(//a/@id | //a/@id)`); s != "2" {
		t.Fatalf("count(//a/@id | //a/@id) = %s, want 2", s)
	}
	// An element orders before its own attributes, and they before its
	// children.
	got = got[:0]
	for _, n := range evalNodes(t, d, `//a[1]/q | //a[1]/@id | //a[1]`) {
		got = append(got, n.Name+"="+nodeStringValue(n))
	}
	if want := []string{"a=x", "id=1", "q=x"}; !slices.Equal(got, want) {
		t.Fatalf("element, attribute, child = %v, want %v", got, want)
	}
}

// fuzzDocs are kept small: the oracle is O(nodes²) per step and nests.
var fuzzDocs = append([]string{
	`<o id="7"><item sku="A"><quantity>1</quantity><price>10.5</price></item><item><quantity>3</quantity></item><!--n--></o>`,
}, nestingDocs...)

// FuzzXPathCompileEval feeds arbitrary bytes to Compile; whatever compiles
// must evaluate without panicking and agree with the oracle.
func FuzzXPathCompileEval(f *testing.F) {
	for i, src := range append(append([]string{}, exprTable...), nestingExprs...) {
		f.Add(src, uint8(i))
	}
	var docs []*xmldom.Node
	for _, d := range fuzzDocs {
		docs = append(docs, mustParse(f, []byte(d)))
	}
	f.Fuzz(func(t *testing.T, src string, which uint8) {
		if len(src) > 48 {
			return
		}
		e, err := Compile(src)
		if err != nil {
			return
		}
		checkAgainstOracle(t, e, docs[int(which)%len(docs)])
	})
}
