package xsd_test

import (
	"strings"
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

const orderSchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="skuType">
    <xs:restriction base="xs:string">
      <xs:minLength value="2"/>
      <xs:maxLength value="8"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:complexType name="itemType">
    <xs:sequence>
      <xs:element name="quantity" type="xs:positiveInteger"/>
      <xs:element name="price" type="xs:decimal"/>
      <xs:element name="note" type="xs:string" minOccurs="0"/>
    </xs:sequence>
    <xs:attribute name="sku" type="skuType" use="required"/>
  </xs:complexType>
  <xs:element name="purchaseOrder">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="customer" type="xs:string"/>
        <xs:element name="date" type="xs:date" minOccurs="0"/>
        <xs:element name="item" type="itemType" maxOccurs="unbounded"/>
        <xs:choice minOccurs="0">
          <xs:element name="express" type="xs:boolean"/>
          <xs:element name="carrier" type="xs:string"/>
        </xs:choice>
      </xs:sequence>
      <xs:attribute name="id" type="xs:string" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

const validOrder = `<purchaseOrder id="po-1">
  <customer>ACME Corp</customer>
  <date>2007-03-14</date>
  <item sku="A1X"><quantity>1</quantity><price>10.50</price></item>
  <item sku="B22"><quantity>3</quantity><price>2</price><note>gift</note></item>
  <express>true</express>
</purchaseOrder>`

func compile(t *testing.T) *xsd.Schema {
	t.Helper()
	s, err := xsd.ParseSchema([]byte(orderSchema))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parseDoc(t *testing.T, src string) *xmldom.Node {
	t.Helper()
	d, err := xmldom.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidDocument(t *testing.T) {
	s := compile(t)
	errs := xsd.Validate(s, parseDoc(t, validOrder))
	if len(errs) != 0 {
		t.Fatalf("valid document rejected: %v", errs[0])
	}
}

// invalidOrders are schema-invalid instances of orderSchema, each with a
// substring one of its errors must carry.
var invalidOrders = []struct {
	name, doc, wantSub string
}{
	{"unknown root", `<other/>`, "no global declaration"},
	{"missing required attr", `<purchaseOrder><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "missing required attribute"},
	{"missing required child", `<purchaseOrder id="1"><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "expected <customer>"},
	{"bad integer", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>zero</quantity><price>1</price></item></purchaseOrder>`, "not a positive integer"},
	{"negative quantity", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>-2</quantity><price>1</price></item></purchaseOrder>`, "not a positive integer"},
	{"bad decimal", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>abc</price></item></purchaseOrder>`, "not a valid decimal"},
	{"bad date", `<purchaseOrder id="1"><customer>c</customer><date>14-03-2007</date><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "not a valid date"},
	{"sku too short", `<purchaseOrder id="1"><customer>c</customer><item sku="A"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "minLength"},
	{"sku too long", `<purchaseOrder id="1"><customer>c</customer><item sku="ABCDEFGHIJ"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "maxLength"},
	{"wrong order", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><price>1</price><quantity>1</quantity></item></purchaseOrder>`, "expected <quantity>"},
	{"unexpected element", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item><bogus/></purchaseOrder>`, "unexpected element"},
	{"no items", `<purchaseOrder id="1"><customer>c</customer></purchaseOrder>`, "missing required element <item>"},
	{"bad boolean", `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item><express>yes</express></purchaseOrder>`, "not a valid boolean"},
	{"undeclared attribute", `<purchaseOrder id="1" color="red"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "undeclared attribute"},
	{"text in element-only", `<purchaseOrder id="1">stray<customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`, "character content"},
}

const (
	carrierOrder  = `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item><carrier>UPS</carrier></purchaseOrder>`
	noChoiceOrder = `<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item></purchaseOrder>`
)

func TestInvalidDocuments(t *testing.T) {
	s := compile(t)
	for _, c := range invalidOrders {
		t.Run(c.name, func(t *testing.T) {
			errs := xsd.Validate(s, parseDoc(t, c.doc))
			if len(errs) == 0 {
				t.Fatalf("accepted invalid document")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), c.wantSub) {
					found = true
				}
			}
			if !found {
				t.Fatalf("errors %v do not mention %q", errs, c.wantSub)
			}
		})
	}
}

func TestChoiceBranches(t *testing.T) {
	s := compile(t)
	if errs := xsd.Validate(s, parseDoc(t, carrierOrder)); len(errs) != 0 {
		t.Fatalf("carrier branch rejected: %v", errs[0])
	}
	if errs := xsd.Validate(s, parseDoc(t, noChoiceOrder)); len(errs) != 0 {
		t.Fatalf("optional choice omitted but rejected: %v", errs[0])
	}
}

func TestUnboundedOccurs(t *testing.T) {
	s := compile(t)
	var b strings.Builder
	b.WriteString(`<purchaseOrder id="1"><customer>c</customer>`)
	for i := 0; i < 50; i++ {
		b.WriteString(`<item sku="AB"><quantity>1</quantity><price>1</price></item>`)
	}
	b.WriteString(`</purchaseOrder>`)
	if errs := xsd.Validate(s, parseDoc(t, b.String())); len(errs) != 0 {
		t.Fatalf("unbounded occurrence rejected: %v", errs[0])
	}
}

const allSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="cfg">
    <xs:complexType>
      <xs:all>
        <xs:element name="a" type="xs:string"/>
        <xs:element name="b" type="xs:int"/>
        <xs:element name="c" type="xs:string" minOccurs="0"/>
      </xs:all>
    </xs:complexType>
  </xs:element>
</xs:schema>`

var (
	allOK = []string{
		`<cfg><a>x</a><b>1</b></cfg>`,
		`<cfg><b>1</b><a>x</a></cfg>`,
		`<cfg><c>y</c><a>x</a><b>1</b></cfg>`,
	}
	allBad = []string{
		`<cfg><a>x</a></cfg>`,                 // missing b
		`<cfg><a>x</a><b>1</b><a>y</a></cfg>`, // a twice
	}
)

func TestAllGroup(t *testing.T) {
	schema := xsd.MustParseSchema(allSchema)
	for _, doc := range allOK {
		if errs := xsd.Validate(schema, parseDoc(t, doc)); len(errs) != 0 {
			t.Errorf("%s rejected: %v", doc, errs[0])
		}
	}
	for _, doc := range allBad {
		if errs := xsd.Validate(schema, parseDoc(t, doc)); len(errs) == 0 {
			t.Errorf("%s accepted", doc)
		}
	}
}

const enumSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="color">
    <xs:restriction base="xs:string">
      <xs:enumeration value="red"/>
      <xs:enumeration value="green"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:element name="paint" type="color"/>
</xs:schema>`

func TestEnumerationFacet(t *testing.T) {
	schema := xsd.MustParseSchema(enumSchema)
	if errs := xsd.Validate(schema, parseDoc(t, `<paint>red</paint>`)); len(errs) != 0 {
		t.Fatalf("enumerated value rejected: %v", errs[0])
	}
	if errs := xsd.Validate(schema, parseDoc(t, `<paint>blue</paint>`)); len(errs) == 0 {
		t.Fatal("non-enumerated value accepted")
	}
}

const rangeSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="pct">
    <xs:restriction base="xs:int">
      <xs:minInclusive value="0"/>
      <xs:maxInclusive value="100"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:element name="p" type="pct"/>
</xs:schema>`

func TestRangeFacets(t *testing.T) {
	schema := xsd.MustParseSchema(rangeSchema)
	if errs := xsd.Validate(schema, parseDoc(t, `<p>55</p>`)); len(errs) != 0 {
		t.Fatalf("in-range rejected: %v", errs[0])
	}
	for _, doc := range []string{`<p>-1</p>`, `<p>101</p>`} {
		if errs := xsd.Validate(schema, parseDoc(t, doc)); len(errs) == 0 {
			t.Errorf("%s accepted", doc)
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	bad := []string{
		`<notschema/>`,
		`<xs:schema xmlns:xs="x"><xs:element/></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:element name="e" type="xs:nosuch"/></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:complexType/></xs:schema>`,
		`<xs:schema xmlns:xs="x"></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:simpleType name="s"/></xs:schema>`,
		// A group inside xs:all: compiled, it made the validator
		// dereference the group's nil Elem on <r><a>x</a></r>.
		`<xs:schema xmlns:xs="x"><xs:element name="r"><xs:complexType><xs:all><xs:element name="a"/><xs:sequence><xs:element name="b"/></xs:sequence></xs:all></xs:complexType></xs:element></xs:schema>`,
	}
	for _, src := range bad {
		if _, err := xsd.ParseSchema([]byte(src)); err == nil {
			t.Errorf("ParseSchema(%q) succeeded", src)
		}
	}
}

func TestInstrumentedValidationEmitsOps(t *testing.T) {
	s := compile(t)
	var c trace.Counting
	v := xsd.NewValidator(s, &c)
	if !v.Valid(parseDoc(t, validOrder)) {
		t.Fatal("valid doc rejected under instrumentation")
	}
	if c.Instr == 0 || c.Branches == 0 {
		t.Fatalf("no ops emitted: %+v", c)
	}
	// Branch outcomes must be mixed (data-dependent): both taken and
	// not-taken present.
	if c.Taken == 0 || c.Taken == c.Branches {
		t.Fatalf("degenerate branch outcomes: taken=%d of %d", c.Taken, c.Branches)
	}
}

func TestInstrumentedMatchesPlain(t *testing.T) {
	s := compile(t)
	docs := []string{validOrder,
		`<purchaseOrder id="1"><customer>c</customer></purchaseOrder>`,
	}
	for _, src := range docs {
		plain := len(xsd.Validate(s, parseDoc(t, src)))
		inst := len(xsd.NewValidator(s, &trace.Counting{}).Validate(parseDoc(t, src)))
		if plain != inst {
			t.Errorf("instrumented verdict differs for %q: %d vs %d", src, plain, inst)
		}
	}
}
