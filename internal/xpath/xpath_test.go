package xpath

import (
	"math"
	"strings"
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

const orderDoc = `<?xml version="1.0"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <purchaseOrder id="po-7">
      <item sku="A1"><quantity>1</quantity><price>10.5</price></item>
      <item sku="B2"><quantity>3</quantity><price>2.0</price></item>
      <item sku="C3"><quantity>1</quantity><price>7</price></item>
      <note>rush order</note>
    </purchaseOrder>
  </soap:Body>
</soap:Envelope>`

func doc(t *testing.T) *xmldom.Node {
	t.Helper()
	d, err := xmldom.Parse([]byte(orderDoc))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func evalStr(t *testing.T, d *xmldom.Node, expr string) string {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	s, err := NewEvaluator(nil).EvalString(e, d)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return s
}

func evalNodes(t *testing.T, d *xmldom.Node, expr string) []*xmldom.Node {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	v, err := NewEvaluator(nil).Eval(e, d)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	if !v.IsNodeSet() {
		t.Fatalf("Eval(%q) is not a node-set", expr)
	}
	return v.Nodes
}

func TestPaperExpression(t *testing.T) {
	// The exact CBR expression from the paper: //quantity/text() with the
	// routing condition "equals the string 1".
	d := doc(t)
	e := MustCompile(`//quantity/text()`)
	v, err := NewEvaluator(nil).Eval(e, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != 3 {
		t.Fatalf("got %d text nodes, want 3", len(v.Nodes))
	}
	if v.String() != "1" {
		t.Fatalf("string-value = %q, want \"1\"", v.String())
	}
	ok, err := NewEvaluator(nil).EvalBool(MustCompile(`//quantity/text() = "1"`), d)
	if err != nil || !ok {
		t.Fatalf("routing condition = %v, %v; want true", ok, err)
	}
}

func TestDescendantAndChild(t *testing.T) {
	d := doc(t)
	if n := len(evalNodes(t, d, `//item`)); n != 3 {
		t.Fatalf("//item = %d, want 3", n)
	}
	if n := len(evalNodes(t, d, `/Envelope/Body/purchaseOrder/item`)); n != 3 {
		t.Fatalf("absolute path = %d, want 3", n)
	}
	if n := len(evalNodes(t, d, `//purchaseOrder/*`)); n != 4 {
		t.Fatalf("wildcard children = %d, want 4", n)
	}
}

func TestAttributes(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, `//purchaseOrder/@id`); got != "po-7" {
		t.Fatalf("@id = %q", got)
	}
	if n := len(evalNodes(t, d, `//item[@sku="B2"]`)); n != 1 {
		t.Fatalf("attribute predicate = %d, want 1", n)
	}
	if n := len(evalNodes(t, d, `//item/@sku`)); n != 3 {
		t.Fatalf("attribute axis = %d, want 3", n)
	}
}

func TestPredicates(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, `//item[2]/quantity`); got != "3" {
		t.Fatalf("positional = %q, want 3", got)
	}
	if got := evalStr(t, d, `//item[last()]/@sku`); got != "C3" {
		t.Fatalf("last() = %q, want C3", got)
	}
	if n := len(evalNodes(t, d, `//item[quantity="1"]`)); n != 2 {
		t.Fatalf("value predicate = %d, want 2", n)
	}
	if n := len(evalNodes(t, d, `//item[quantity="1" and price>8]`)); n != 1 {
		t.Fatalf("and predicate = %d, want 1", n)
	}
}

func TestFunctions(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr, want string
	}{
		{`count(//item)`, "3"},
		{`string(//note)`, "rush order"},
		{`normalize-space("  a   b ")`, "a b"},
		{`concat("x", "-", "y")`, "x-y"},
		{`substring("hello", 2, 3)`, "ell"},
		{`string-length("abcd")`, "4"},
		{`local-name(//purchaseOrder/*[last()])`, "note"},
		{`sum(//price)`, "19.5"},
		{`floor(2.7)`, "2"},
		{`ceiling(2.1)`, "3"},
		{`round(2.5)`, "3"},
		{`string(1 + 2 * 3)`, "7"},
		{`string(10 div 4)`, "2.5"},
		{`string(10 mod 4)`, "2"},
		{`string(-(3))`, "-3"},
	}
	for _, c := range cases {
		if got := evalStr(t, d, c.expr); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	for _, expr := range []string{
		`contains("hello", "ell")`, `starts-with("hello", "he")`,
		`not(false())`, `true()`, `boolean(//item)`,
		`//item[position()=2]/quantity = 3`,
		`count(//item | //note) = 4`,
	} {
		ok, err := NewEvaluator(nil).EvalBool(MustCompile(expr), d)
		if err != nil || !ok {
			t.Errorf("%s = %v, %v; want true", expr, ok, err)
		}
	}
}

func TestNumberConversions(t *testing.T) {
	if v := stringValue("  42 ").Number(); v != 42 {
		t.Errorf("number(' 42 ') = %v", v)
	}
	if v := stringValue("x").Number(); !math.IsNaN(v) {
		t.Errorf("number('x') = %v, want NaN", v)
	}
	if boolValue(true).Number() != 1 || boolValue(false).Number() != 0 {
		t.Error("boolean to number failed")
	}
	if numberValue(2.5).String() != "2.5" || numberValue(3).String() != "3" {
		t.Error("number formatting failed")
	}
	if numberValue(math.NaN()).String() != "NaN" {
		t.Error("NaN formatting failed")
	}
}

func TestUnionDocumentOrder(t *testing.T) {
	d := doc(t)
	ns := evalNodes(t, d, `//note | //item`)
	if len(ns) != 4 {
		t.Fatalf("union = %d, want 4", len(ns))
	}
	// Document order: the three items precede the note.
	if ns[3].Local != "note" {
		t.Fatalf("union order wrong: last = %s", ns[3].Local)
	}
}

func TestParentAndSelf(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, `//quantity/../@sku`); got != "A1" {
		t.Fatalf("parent axis = %q, want A1", got)
	}
	if n := len(evalNodes(t, d, `//item/.`)); n != 3 {
		t.Fatalf("self axis = %d, want 3", n)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``, `//`, `//[`, `foo(`, `"unterminated`, `1 +`, `//a[`,
		`//a]`, `@@`, `count(//a`, `$var`, `//a[1]extra"`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	d := doc(t)
	for _, src := range []string{
		`unknown-fn()`, `count("s")`, `not()`, `"a" | "b"`, `substring("x")`,
	} {
		e, err := Compile(src)
		if err != nil {
			continue // compile-time rejection also acceptable
		}
		if _, err := NewEvaluator(nil).Eval(e, d); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestInstrumentedEvalEmitsOps(t *testing.T) {
	d := doc(t)
	var c trace.Counting
	ev := NewEvaluator(&c)
	v, err := ev.Eval(MustCompile(`//quantity/text()`), d)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1" {
		t.Fatalf("instrumented result = %q", v.String())
	}
	if c.Instr == 0 || c.Loads == 0 || c.Branches == 0 {
		t.Fatalf("no ops emitted: %+v", c)
	}
	// A descendant scan must visit every node at least once.
	if c.Loads < uint64(d.CountNodes()) {
		t.Fatalf("loads %d < node count %d", c.Loads, d.CountNodes())
	}
}

func TestLargerDocumentScaling(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 200; i++ {
		sb.WriteString("<item><quantity>2</quantity></item>")
	}
	sb.WriteString("</r>")
	d, err := xmldom.Parse([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var small, large trace.Counting
	if _, err := NewEvaluator(&large).Eval(MustCompile(`//quantity`), d); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(&small).Eval(MustCompile(`//quantity`), doc(t)); err != nil {
		t.Fatal(err)
	}
	if large.Instr < 10*small.Instr {
		t.Fatalf("traversal cost did not scale: %d vs %d", large.Instr, small.Instr)
	}
	if n := len(mustNodes(t, d, `//quantity`)); n != 200 {
		t.Fatalf("got %d, want 200", n)
	}
}

func mustNodes(t *testing.T, d *xmldom.Node, expr string) []*xmldom.Node {
	t.Helper()
	v, err := NewEvaluator(nil).Eval(MustCompile(expr), d)
	if err != nil {
		t.Fatal(err)
	}
	return v.Nodes
}
