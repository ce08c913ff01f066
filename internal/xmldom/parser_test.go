package xmldom

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perf/trace"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return doc
}

func TestParseMinimal(t *testing.T) {
	doc := mustParse(t, `<a/>`)
	el := doc.DocumentElement()
	if el == nil || el.Name != "a" {
		t.Fatalf("document element = %+v, want <a>", el)
	}
	if len(el.Children) != 0 {
		t.Fatalf("children = %d, want 0", len(el.Children))
	}
}

func TestParseNested(t *testing.T) {
	doc := mustParse(t, `<a><b><c>x</c></b><b>y</b></a>`)
	a := doc.DocumentElement()
	bs := a.ChildElements("b")
	if len(bs) != 2 {
		t.Fatalf("got %d <b> children, want 2", len(bs))
	}
	c := bs[0].FirstChildElement("c")
	if c == nil || c.TextContent() != "x" {
		t.Fatalf("c = %v", c)
	}
	if got := a.TextContent(); got != "xy" {
		t.Fatalf("TextContent = %q, want %q", got, "xy")
	}
}

// TestTextContentShapes covers each shape TextContent distinguishes: the
// leaf shapes return a string they already hold (no allocation), anything
// else the concatenation.
func TestTextContentShapes(t *testing.T) {
	doc := mustParse(t, `<a><t>one</t><e/><c><!--x--></c><m>l<i>m</i>r</m><w><i>only</i></w></a>`)
	a := doc.DocumentElement()
	for _, c := range []struct {
		name, want string
		leaf       bool
	}{
		{"t", "one", true}, {"e", "", true}, {"c", "", false}, {"m", "lmr", false}, {"w", "only", false},
	} {
		el := a.FirstChildElement(c.name)
		if got := el.TextContent(); got != c.want {
			t.Errorf("<%s>: TextContent = %q, want %q", c.name, got, c.want)
		}
		if !c.leaf {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = el.TextContent() }); allocs != 0 {
			t.Errorf("<%s>: %v allocs per TextContent, want 0", c.name, allocs)
		}
	}
	if text := a.FirstChildElement("t").Children[0]; text.TextContent() != "one" {
		t.Errorf("text node: TextContent = %q", text.TextContent())
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<a x="1" y='two' ns:z="a&amp;b"/>`)
	el := doc.DocumentElement()
	cases := map[string]string{"x": "1", "y": "two", "ns:z": "a&b"}
	for k, want := range cases {
		got, ok := el.Attr(k)
		if !ok || got != want {
			t.Errorf("attr %q = %q,%v; want %q", k, got, ok, want)
		}
	}
	if _, ok := el.Attr("missing"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, `<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>`)
	want := `<tag> & "q" 'a' AB`
	if got := doc.DocumentElement().TextContent(); got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	doc := mustParse(t, `<a><!-- note --><![CDATA[<raw>&amp;]]>tail</a>`)
	el := doc.DocumentElement()
	if got := el.TextContent(); got != "<raw>&amp;tail" {
		t.Fatalf("text = %q", got)
	}
	var comments int
	el.Walk(func(n *Node) bool {
		if n.Kind == Comment {
			comments++
			if n.Data != " note " {
				t.Errorf("comment = %q", n.Data)
			}
		}
		return true
	})
	if comments != 1 {
		t.Fatalf("comments = %d, want 1", comments)
	}
}

// TestEmptyCDATAMakesNoTextNode: XPath has no empty text nodes, so no
// builder may produce one from <![CDATA[]]>.
func TestEmptyCDATAMakesNoTextNode(t *testing.T) {
	for src, want := range map[string]int{
		`<a><![CDATA[]]></a>`:       0,
		`<a>x<![CDATA[]]>y</a>`:     2,
		`<a><![CDATA[]]><b/>z</a>`:  2,
		`<a><![CDATA[x]]></a>`:      1,
		`<a>&#65;<![CDATA[]]>t</a>`: 2,
	} {
		plain := mustParse(t, src)
		inst, err := ParseInstrumented([]byte(src), &trace.Counting{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, doc := range map[string]*Node{"Parse": plain, "ParseInstrumented": inst} {
			a := doc.DocumentElement()
			if len(a.Children) != want {
				t.Errorf("%s(%q): %d children, want %d", name, src, len(a.Children), want)
			}
			for _, c := range a.Children {
				if c.Kind == Text && c.Data == "" {
					t.Errorf("%s(%q): empty text node", name, src)
				}
			}
		}
	}
}

func TestParseProlog(t *testing.T) {
	doc := mustParse(t, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- hdr -->\n<root/>")
	if doc.DocumentElement().Name != "root" {
		t.Fatal("missing root after prolog")
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE html><root/>`)
	if doc.DocumentElement().Name != "root" {
		t.Fatal("missing root after DOCTYPE")
	}
}

func TestParseNamespacePrefix(t *testing.T) {
	doc := mustParse(t, `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body/></soap:Envelope>`)
	env := doc.DocumentElement()
	if env.Prefix != "soap" || env.Local != "Envelope" {
		t.Fatalf("prefix/local = %q/%q", env.Prefix, env.Local)
	}
	if env.FirstChildElement("Body") == nil {
		t.Fatal("Body not found by local name")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`<`,
		`<a>`,
		`<a></b>`,
		`<a x=1/>`,
		`<a x="1" x="2"/>`,
		`<a>&unknown;</a>`,
		`<a>&#zz;</a>`,
		`<a><b></a></b>`,
		`<a/><b/>`,
		`text only`,
		`<a b="<"/>`,
		`<!-- unterminated`,
		`<a><![CDATA[x</a>`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	var pe *parseError
	_, err := Parse([]byte(`<a></b>`))
	if err == nil {
		t.Fatal("want error")
	}
	var ok bool
	pe, ok = err.(*parseError)
	if !ok || pe.Offset <= 0 {
		t.Fatalf("error %v is not a positioned parseError", err)
	}
}

func TestParseSelfClosingMixed(t *testing.T) {
	doc := mustParse(t, `<a><b/>text<c/></a>`)
	el := doc.DocumentElement()
	if len(el.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(el.Children))
	}
	if el.Children[1].Kind != Text || el.Children[1].Data != "text" {
		t.Fatalf("middle child = %+v", el.Children[1])
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`<a/>`,
		`<a x="1"><b>t</b><c/></a>`,
		`<a>&lt;&amp;&gt;</a>`,
		`<soap:Envelope><soap:Body><order><quantity>1</quantity></order></soap:Body></soap:Envelope>`,
	}
	for _, src := range srcs {
		doc := mustParse(t, src)
		out := serialize(doc)
		doc2 := mustParse(t, out)
		out2 := serialize(doc2)
		if out != out2 {
			t.Errorf("serialize not stable: %q -> %q -> %q", src, out, out2)
		}
	}
}

// TestRoundTripProperty: any tree serialized and reparsed yields the same
// serialization (parse . serialize is idempotent on generated trees).
func TestRoundTripProperty(t *testing.T) {
	gen := func(seed int64) bool {
		src := genDoc(seed)
		doc, err := Parse([]byte(src))
		if err != nil {
			t.Logf("generated doc failed to parse: %q: %v", src, err)
			return false
		}
		out := serialize(doc)
		doc2, err := Parse([]byte(out))
		if err != nil {
			t.Logf("reparse failed: %q: %v", out, err)
			return false
		}
		return serialize(doc2) == out
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// genDoc builds a small pseudo-random but well-formed document.
func genDoc(seed int64) string {
	rng := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	names := []string{"a", "bee", "c1", "data", "ns:el"}
	texts := []string{"", "hello", "x & y", "1", "  spaced  ", "<escaped>"}
	var build func(depth int) string
	build = func(depth int) string {
		name := names[next(len(names))]
		var b strings.Builder
		b.WriteByte('<')
		b.WriteString(name)
		if next(3) == 0 {
			b.WriteString(` attr="`)
			b.WriteString(escapeAttr(texts[next(len(texts))]))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		kids := next(3)
		if depth >= 3 {
			kids = 0
		}
		for i := 0; i < kids; i++ {
			if next(2) == 0 {
				b.WriteString(build(depth + 1))
			} else {
				b.WriteString(escapeText(texts[next(len(texts))]))
			}
		}
		b.WriteString("</")
		b.WriteString(name)
		b.WriteByte('>')
		return b.String()
	}
	return build(0)
}

func TestInstrumentedParseEmitsOps(t *testing.T) {
	src := []byte(`<a x="1"><b>some text content here</b><c/></a>`)
	var c trace.Counting
	arena := trace.NewArena(1<<30, 1<<20)
	doc, err := ParseInstrumented(src, &c, 0x1000, arena)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocumentElement() == nil {
		t.Fatal("no document element")
	}
	if c.Instr == 0 || c.Loads == 0 || c.Stores == 0 || c.Branches == 0 {
		t.Fatalf("instrumentation missing events: %+v", c)
	}
	// The op stream should scale with input size.
	var c2 trace.Counting
	big := []byte(`<a>` + strings.Repeat(`<b>payload text</b>`, 50) + `</a>`)
	if _, err := ParseInstrumented(big, &c2, 0x1000, arena); err != nil {
		t.Fatal(err)
	}
	if c2.Instr < 2*c.Instr {
		t.Fatalf("instruction stream does not scale: small=%d big=%d", c.Instr, c2.Instr)
	}
}

func TestInstrumentedMatchesUninstrumented(t *testing.T) {
	src := []byte(`<root a="1"><x>1</x><y>&amp;2</y><!--c--><z/></root>`)
	plain, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ParseInstrumented(src, &trace.Counting{}, 0, trace.NewArena(1<<30, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if serialize(plain) != serialize(inst) {
		t.Fatalf("instrumented parse differs:\n%s\n%s", serialize(plain), serialize(inst))
	}
}

func TestCountNodes(t *testing.T) {
	doc := mustParse(t, `<a><b/><c>t</c></a>`)
	// document + a + b + c + text = 5
	if got := doc.CountNodes(); got != 5 {
		t.Fatalf("CountNodes = %d, want 5", got)
	}
}

func TestWalkStops(t *testing.T) {
	doc := mustParse(t, `<a><b/><c/><d/></a>`)
	seen := 0
	doc.Walk(func(n *Node) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("walk visited %d, want 3", seen)
	}
}

func TestNamespaceResolution(t *testing.T) {
	doc := mustParse(t, `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" xmlns="urn:default">
	  <soap:Body>
	    <order xmlns="urn:orders"><qty>1</qty></order>
	    <plain/>
	  </soap:Body>
	</soap:Envelope>`)
	env := doc.DocumentElement()
	if env.NS != "http://schemas.xmlsoap.org/soap/envelope/" {
		t.Fatalf("envelope NS = %q", env.NS)
	}
	body := env.FirstChildElement("Body")
	if body.NS != env.NS {
		t.Fatalf("body NS = %q", body.NS)
	}
	order := body.FirstChildElement("order")
	if order.NS != "urn:orders" {
		t.Fatalf("order NS = %q (default override)", order.NS)
	}
	qty := order.FirstChildElement("qty")
	if qty.NS != "urn:orders" {
		t.Fatalf("qty NS = %q (inherits overridden default)", qty.NS)
	}
	plain := body.FirstChildElement("plain")
	if plain.NS != "urn:default" {
		t.Fatalf("plain NS = %q (outer default in scope)", plain.NS)
	}
	if got := plain.LookupNamespace("soap"); got != env.NS {
		t.Fatalf("prefix lookup from leaf = %q", got)
	}
	if got := plain.LookupNamespace("nosuch"); got != "" {
		t.Fatalf("unbound prefix resolved to %q", got)
	}
}

func TestNamespaceUnboundPrefix(t *testing.T) {
	doc := mustParse(t, `<a:root/>`)
	if doc.DocumentElement().NS != "" {
		t.Fatal("unbound prefix got a namespace")
	}
}
