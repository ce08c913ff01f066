package xmldom

import (
	"strings"
	"testing"
)

// treeEqual compares two trees structurally, ignoring representation
// details that serialization legitimately normalizes (CDATA becomes
// escaped text, entities are resolved).
func treeEqual(t *testing.T, path string, a, b *Node) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatalf("%s: kind %v != %v", path, a.Kind, b.Kind)
	}
	if a.Name != b.Name || a.Prefix != b.Prefix || a.Local != b.Local {
		t.Fatalf("%s: name %q/%q/%q != %q/%q/%q", path, a.Name, a.Prefix, a.Local, b.Name, b.Prefix, b.Local)
	}
	if a.NS != b.NS {
		t.Fatalf("%s: ns %q != %q", path, a.NS, b.NS)
	}
	if a.Data != b.Data {
		t.Fatalf("%s: data %q != %q", path, a.Data, b.Data)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("%s: attr count %d != %d", path, len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			t.Fatalf("%s: attr %d: %+v != %+v", path, i, a.Attrs[i], b.Attrs[i])
		}
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: child count %d != %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		treeEqual(t, path+"/"+a.Children[i].Name, a.Children[i], b.Children[i])
	}
}

// roundTrip parses src, serializes, reparses, and demands the two trees
// and the two serializations agree (serialization is a fixed point after
// one normalization pass).
func roundTrip(t *testing.T, src string) *Node {
	t.Helper()
	doc1, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	out1 := serialize(doc1)
	doc2, err := Parse([]byte(out1))
	if err != nil {
		t.Fatalf("reparse: %v\nserialized: %s", err, out1)
	}
	treeEqual(t, "", doc1, doc2)
	if out2 := serialize(doc2); out2 != out1 {
		t.Fatalf("serialization not a fixed point:\n1: %s\n2: %s", out1, out2)
	}
	return doc1
}

func TestRoundTripAttributes(t *testing.T) {
	doc := roundTrip(t, `<order id="po-1" state="open" note="a &lt; b &amp; c &quot;q&quot;"><item sku="S-1"/></order>`)
	el := doc.DocumentElement()
	if v, _ := el.Attr("note"); v != `a < b & c "q"` {
		t.Fatalf("attr entity resolution: %q", v)
	}
}

func TestRoundTripCDATA(t *testing.T) {
	doc := roundTrip(t, `<doc><![CDATA[literal <tags> & "quotes" stay]]></doc>`)
	got := doc.DocumentElement().TextContent()
	if got != `literal <tags> & "quotes" stay` {
		t.Fatalf("CDATA content: %q", got)
	}
	// After one round trip the CDATA is escaped text; content survives.
	out := serialize(doc)
	if strings.Contains(out, "CDATA") {
		t.Fatalf("serializer should emit escaped text, got %s", out)
	}
}

func TestRoundTripEntities(t *testing.T) {
	doc := roundTrip(t, `<m>&lt;q&gt; &amp; &apos;x&apos; &quot;y&quot; &#65;&#x42;</m>`)
	got := doc.DocumentElement().TextContent()
	if got != `<q> & 'x' "y" AB` {
		t.Fatalf("entity resolution: %q", got)
	}
}

func TestRoundTripNamespacePrefixes(t *testing.T) {
	src := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" xmlns="urn:default">` +
		`<soap:Body><order xmlns:x="urn:x"><x:ref/><plain/></order></soap:Body></soap:Envelope>`
	doc := roundTrip(t, src)
	env := doc.DocumentElement()
	if env.Prefix != "soap" || env.Local != "Envelope" || env.NS != "http://schemas.xmlsoap.org/soap/envelope/" {
		t.Fatalf("envelope: %+v", env)
	}
	order := env.FirstChildElement("Body").FirstChildElement("order")
	if order.NS != "urn:default" {
		t.Fatalf("default ns not inherited: %q", order.NS)
	}
	ref := order.FirstChildElement("ref")
	if ref.Prefix != "x" || ref.NS != "urn:x" {
		t.Fatalf("prefixed child: %+v", ref)
	}
}

func TestRoundTripMixedContent(t *testing.T) {
	roundTrip(t, `<?xml version="1.0"?><!-- head --><doc a="1">text <b>bold</b> tail<?pi data?><!-- in --></doc>`)
}

func TestRoundTripWorkloadMessage(t *testing.T) {
	// The AONBench order document itself — the bytes every live gateway
	// message carries — must round-trip exactly.
	src := `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
<soap:Header><transactionID>txn-00000007</transactionID></soap:Header>
<soap:Body><purchaseOrder id="po-7"><customer>ACME &amp; Co</customer>
<item><sku>SKU-1</sku><quantity>1</quantity><price>9.99</price></item>
<filler>transit warehouse</filler></purchaseOrder></soap:Body></soap:Envelope>`
	doc := roundTrip(t, src)
	q := doc.DocumentElement().FirstChildElement("Body").
		FirstChildElement("purchaseOrder").FirstChildElement("item").
		FirstChildElement("quantity")
	if q.TextContent() != "1" {
		t.Fatalf("quantity lost: %q", q.TextContent())
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := escapeText(`a<b>&c`); got != "a&lt;b&gt;&amp;c" {
		t.Fatalf("escapeText: %q", got)
	}
	if got := escapeAttr(`he said "hi" & left<`); got != `he said &quot;hi&quot; &amp; left&lt;` {
		t.Fatalf("escapeAttr: %q", got)
	}
}

// serialize renders the tree back to XML text. Round-tripping through
// Parse and serialize is exercised by the property-based tests.
func serialize(n *Node) string {
	var b strings.Builder
	writeNode(&b, n)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	switch n.Kind {
	case Document:
		for _, c := range n.Children {
			writeNode(b, c)
		}
	case Element:
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(escapeAttr(a.Value))
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for _, c := range n.Children {
			writeNode(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	case Text:
		b.WriteString(escapeText(n.Data))
	case Comment:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ProcInst:
		b.WriteString("<?")
		b.WriteString(n.Data)
		b.WriteString("?>")
	}
}

// escapeText escapes character data for element content.
func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// escapeAttr escapes character data for a double-quoted attribute value.
func escapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
	return r.Replace(s)
}
