package xsd_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

// nestSchema is a recursive content model: a section holds any number of
// sections.
const nestSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="secType">
    <xs:sequence>
      <xs:element name="section" type="secType" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="section" type="secType"/>
</xs:schema>`

// nest returns depth sections, each inside the one before.
func nest(depth int) string {
	return strings.Repeat("<section>", depth) + strings.Repeat("</section>", depth)
}

// TestRecursiveSchemaIsLinear is the regression test for lookahead by full
// validation: every <section> sits under an optional, repeated particle, so
// the reference validated each one twice per level — its work doubles with
// every level of nesting (checked here up to depth 12; depth 64 would be
// 2^64) — where the validator visits each element once.
func TestRecursiveSchemaIsLinear(t *testing.T) {
	s := testSchemas["nest"]
	prev := 0
	for depth := 8; depth <= 12; depth++ {
		o := newOracleValidator(s, nil)
		if errs := o.Validate(parseDoc(t, nest(depth))); len(errs) != 0 {
			t.Fatalf("oracle, depth %d: %v", depth, errs[0])
		}
		if prev != 0 && o.elements < 2*prev {
			t.Fatalf("oracle visited %d elements at depth %d, %d one level up: the reference is expected to double", o.elements, depth, prev)
		}
		prev = o.elements
	}
	for _, depth := range []int{16, 32, 64, 4096} {
		doc := parseDoc(t, nest(depth))
		if errs := xsd.Validate(s, doc); len(errs) != 0 {
			t.Fatalf("depth %d: %v", depth, errs[0])
		}
		if allocs := testing.AllocsPerRun(10, func() { xsd.Validate(s, doc) }); allocs != 0 {
			t.Errorf("depth %d: %v allocs per Validate, want 0", depth, allocs)
		}
	}
	// Wide as well as deep: the last of many siblings is an error, found
	// once and reported with its path.
	wide := "<section>" + strings.Repeat("<section><section/></section>", 500) + "<section><x/></section></section>"
	errs := xsd.Validate(s, parseDoc(t, wide))
	if len(errs) != 1 || errs[0].Error() != "xsd: /section/section: unexpected element <x>" {
		t.Fatalf("wide nest: %v", errs)
	}
}

// TestValidateAllocs pins the allocation cost beside the code: a valid
// message costs nothing — no path strings, no child slices, no Validator on
// the heap — and a report costs what building it costs. Trees are the
// gateway's: StreamParser views.
func TestValidateAllocs(t *testing.T) {
	s := workload.OrderSchema()
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	for seed := uint64(1); seed <= 3; seed++ {
		doc, err := sp.Parse(workload.SOAPMessageSeeded(int(seed), workload.MessageBytes, seed))
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if len(xsd.Validate(s, doc)) != 0 {
				t.Fatal("valid message rejected")
			}
		}); allocs != 0 {
			t.Errorf("seed %d valid: %v allocs per Validate, want 0", seed, allocs)
		}
		doc, err = sp.Parse(workload.InvalidSOAPMessageSeeded(int(seed), workload.MessageBytes, seed))
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if len(xsd.Validate(s, doc)) != 1 {
				t.Fatal("invalid message: want one error")
			}
		}); allocs > 10 {
			t.Errorf("seed %d invalid: %v allocs per Validate, want <= 10", seed, allocs)
		}
		// The verdict alone builds no report, so it costs nothing either way.
		if allocs := testing.AllocsPerRun(20, func() {
			if xsd.Valid(s, doc) {
				t.Fatal("invalid message accepted")
			}
		}); allocs != 0 {
			t.Errorf("seed %d invalid: %v allocs per Valid, want 0", seed, allocs)
		}
	}
	// Lookahead that fails — each branch of a choice tried in turn — does
	// not format the errors it would discard.
	doc := parseDoc(t, carrierOrder)
	order := testSchemas["order"]
	if allocs := testing.AllocsPerRun(20, func() { xsd.Validate(order, doc) }); allocs != 0 {
		t.Errorf("choice: %v allocs per Validate, want 0", allocs)
	}
}

// TestErrorPaths checks the paths built from Parent links against the
// strings the per-element path parameter used to produce.
func TestErrorPaths(t *testing.T) {
	order := testSchemas["order"]
	for _, c := range []struct{ name, doc, want string }{
		{"element", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>0</quantity><price>1</price></item></purchaseOrder>`,
			`xsd: /purchaseOrder/item/quantity: not a positive integer: "0"`},
		{"attribute", `<purchaseOrder id="1"><customer>c</customer><item sku="A"><quantity>1</quantity><price>1</price></item></purchaseOrder>`,
			`xsd: /purchaseOrder/item/@sku: length 1 below minLength 2`},
		{"root", `<other/>`, `xsd: /other: no global declaration for element`},
		{"prefixed", `<p:purchaseOrder xmlns:p="u" id="1"><p:customer>c</p:customer><p:item sku="AB"><p:quantity>1</p:quantity></p:item></p:purchaseOrder>`,
			`xsd: /purchaseOrder/item: missing required element <price>`},
	} {
		errs := xsd.Validate(order, parseDoc(t, c.doc))
		if len(errs) != 1 || errs[0].Error() != c.want {
			t.Errorf("%s: got %v, want %s", c.name, errs, c.want)
		}
	}

	// Validate called on an element with ancestors: the path starts at
	// that element, not at the document.
	doc := parseDoc(t, `<batch><group><purchaseOrder id="1"><customer>c</customer><item><quantity>1</quantity><price>1</price></item></purchaseOrder></group></batch>`)
	po := doc.DocumentElement().FirstChildElement("group").FirstChildElement("purchaseOrder")
	errs := xsd.Validate(order, po)
	if want := `xsd: /purchaseOrder/item: missing required attribute "sku"`; len(errs) != 1 || errs[0].Error() != want {
		t.Errorf("sub-element root: got %v, want %s", errs, want)
	}
	if errs := xsd.Validate(order, &xmldom.Node{Kind: xmldom.Document}); len(errs) != 1 || errs[0].Error() != "xsd: /: empty document" {
		t.Errorf("empty document: got %v", errs)
	}
}

// TestTokenLexicalSpace checks the allocation-free token scan against the
// definition it replaced: the value equals its fields joined by one space.
func TestTokenLexicalSpace(t *testing.T) {
	s := xsd.MustParseSchema(`<xs:schema xmlns:xs="x"><xs:element name="t" type="xs:token"/></xs:schema>`)
	for _, val := range []string{"", "a", "a b", "a  b", " a b ", "a\tb", "a\nb", "a\u00a0b", "a \u2003 b", "\u00e9 \u00e8", "a\xffb", "a \xc2", "\u3000a"} {
		trimmed := strings.TrimSpace(val)
		want := trimmed == strings.Join(strings.Fields(trimmed), " ")
		doc := &xmldom.Node{Kind: xmldom.Element, Name: "t", Local: "t",
			Children: []*xmldom.Node{{Kind: xmldom.Text, Data: val}}}
		errs := xsd.Validate(s, doc)
		if got := len(errs) == 0; got != want {
			t.Errorf("token %q: valid = %v, want %v (%v)", val, got, want, errs)
		}
		if len(errs) > 0 && errs[0].Error() != fmt.Sprintf("xsd: /t: not a valid token: %q", val) {
			t.Errorf("token %q: %v", val, errs[0])
		}
	}
}

// BenchmarkValidate is the SV kernel as the gateway runs it: the paper's
// 5 KB message, a StreamParser tree, every 4th message schema-invalid;
// "report" is Validate, "verdict" the Valid the live pipeline calls.
func BenchmarkValidate(b *testing.B) {
	s := workload.OrderSchema()
	var docs [4]*xmldom.Node
	for i := range docs {
		msg := workload.SOAPMessage(i)
		if i == 3 {
			msg = workload.InvalidSOAPMessage(i)
		}
		// One parser per document, held to the end: a tree is views into
		// its parser's slabs.
		sp := xmldom.AcquireStreamParser()
		defer sp.Release()
		doc, err := sp.Parse(msg)
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	for _, c := range []struct {
		name  string
		valid func(*xsd.Schema, *xmldom.Node) bool
	}{
		{"report", func(s *xsd.Schema, doc *xmldom.Node) bool { return len(xsd.Validate(s, doc)) == 0 }},
		{"verdict", xsd.Valid},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.valid(s, docs[i%4]) != (i%4 != 3) {
					b.Fatalf("message %d: wrong verdict", i%4)
				}
			}
		})
	}
}
