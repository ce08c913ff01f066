package xsd_test

import (
	"slices"
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/perf/trace/tracetest"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

// testSchemas are the schemas of this package's tests by name; the golden
// rows and the differential fuzzer both range over them.
var testSchemas = map[string]*xsd.Schema{
	"soap":  workload.OrderSchema(),
	"order": xsd.MustParseSchema(orderSchema),
	"all":   xsd.MustParseSchema(allSchema),
	"enum":  xsd.MustParseSchema(enumSchema),
	"range": xsd.MustParseSchema(rangeSchema),
	"nest":  xsd.MustParseSchema(nestSchema),
}

type goldenCase struct {
	schema string
	doc    []byte
}

// goldenCases is the workload's SV traffic (seeds 1..3, valid and invalid)
// followed by every document the behavioural tests above validate.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for seed := uint64(1); seed <= 3; seed++ {
		cs = append(cs,
			goldenCase{"soap", workload.SOAPMessageSeeded(int(seed), workload.MessageBytes, seed)},
			goldenCase{"soap", workload.InvalidSOAPMessageSeeded(int(seed), workload.MessageBytes, seed)})
	}
	add := func(schema string, docs ...string) {
		for _, d := range docs {
			cs = append(cs, goldenCase{schema, []byte(d)})
		}
	}
	add("order", validOrder, carrierOrder, noChoiceOrder)
	for _, c := range invalidOrders {
		add("order", c.doc)
	}
	// Errors below a repeated and below an optional particle: the first is
	// looked ahead past, the second validated once, loudly.
	add("order",
		`<purchaseOrder id="1"><customer>c</customer><item sku="AB"><quantity>1</quantity><price>1</price></item><item sku="A"><price>x</price></item></purchaseOrder>`,
		`<purchaseOrder id="1"><customer>c</customer><date><d/></date><item sku="AB"><quantity>1</quantity><price>1</price><note>n</note><note>again</note></item><express>maybe</express></purchaseOrder>`)
	add("all", allOK...)
	add("all", allBad...)
	add("enum", `<paint>red</paint>`, `<paint>blue</paint>`)
	add("range", `<p>55</p>`, `<p>-1</p>`, `<p>101</p>`)
	add("nest", nest(6), `<section><section/><section><other/></section></section>`)
	return cs
}

type validateGolden struct {
	events int
	hash   uint64
	errs   []string
}

// parseMetered parses src on sp as the simulator does, into a fresh node
// arena placed where the goldens were recorded.
func parseMetered(sp *xmldom.StreamParser, src []byte, em trace.Emitter) (*xmldom.Node, error) {
	return sp.ParseMetered(src, em, 1<<32, trace.NewArena(1<<40, 1<<26))
}

// validateInstrumented is what the simulator runs for SV: metered parse,
// then the instrumented validator, one emitter across both.
func validateInstrumented(t testing.TB, s *xsd.Schema, src []byte) validateGolden {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	em := tracetest.NewHashEmitter()
	doc, err := parseMetered(sp, src, em)
	if err != nil {
		t.Fatalf("%.60q: %v", src, err)
	}
	var errs []string
	for _, e := range xsd.NewValidator(s, em).Validate(doc) {
		errs = append(errs, e.Error())
	}
	return validateGolden{em.Events(), em.Sum64(), errs}
}

// TestEmittedStreamGolden checks that the simulator sees the same program
// and callers the same verdicts: event count, stream hash and the ordered
// error strings per goldenCases row. Recorded at commit ec66e76 (lookahead
// by full silent validation, a path string per element), before
// validate.go was touched; EXPERIMENTS.md's simulated SV rows are a
// function of this stream.
func TestEmittedStreamGolden(t *testing.T) {
	for i, c := range goldenCases() {
		got := validateInstrumented(t, testSchemas[c.schema], c.doc)
		if i >= len(emittedGolden) {
			t.Errorf("no golden for row %d (%s %.40q): got\n\t{%d, %#x, %#v},", i, c.schema, c.doc, got.events, got.hash, got.errs)
			continue
		}
		want := emittedGolden[i]
		if got.events != want.events || got.hash != want.hash || !slices.Equal(got.errs, want.errs) {
			t.Errorf("row %d (%s %.40q):\n got {%d, %#x, %q}\nwant {%d, %#x, %q}", i, c.schema, c.doc,
				got.events, got.hash, got.errs, want.events, want.hash, want.errs)
		}
	}
}

var emittedGolden = []validateGolden{
	{7058, 0xdbc144abe06caaec, nil},
	{7058, 0xc0e82175bf11b993, []string{"xsd: /Envelope/Body/purchaseOrder/item/quantity: not a positive integer: \"x2\""}},
	{7147, 0x601fe300dcfc20a1, nil},
	{7147, 0x516ca2b076d14dc3, []string{"xsd: /Envelope/Body/purchaseOrder/item/quantity: not a positive integer: \"x1\""}},
	{6803, 0x61df9c6151d4396, nil},
	{6803, 0xd1d0d4c8d6ceaf6, []string{"xsd: /Envelope/Body/purchaseOrder/item/quantity: not a positive integer: \"x5\""}},
	{751, 0xd1852faac2c21652, nil},
	{369, 0x4c904f60fac3f620, nil},
	{309, 0xc0a7487f3cc7d56d, nil},
	{24, 0xfcb71287e9a4a2b4, []string{"xsd: /other: no global declaration for element"}},
	{286, 0xc348ee2edfff3b77, []string{"xsd: /purchaseOrder: missing required attribute \"id\""}},
	{216, 0x525cea048dcd92e9, []string{"xsd: /purchaseOrder: expected <customer>, found <item>"}},
	{309, 0x2daf9173083cac4d, []string{"xsd: /purchaseOrder/item/quantity: not a positive integer: \"zero\""}},
	{309, 0x5418a0e3750f4107, []string{"xsd: /purchaseOrder/item/quantity: not a positive integer: \"-2\""}},
	{309, 0x4e7957b8257273a0, []string{"xsd: /purchaseOrder/item/price: not a valid decimal: \"abc\""}},
	{364, 0xf94aa9343746528d, []string{"xsd: /purchaseOrder/date: not a valid date: \"14-03-2007\""}},
	{309, 0x455002f086ab83ca, []string{"xsd: /purchaseOrder/item/@sku: length 1 below minLength 2"}},
	{312, 0x7409e6c3749c0e49, []string{"xsd: /purchaseOrder/item/@sku: length 10 above maxLength 8"}},
	{291, 0x513454a6f828dee7, []string{"xsd: /purchaseOrder/item: expected <quantity>, found <price>"}},
	{330, 0x5471aaa8c168d5e7, []string{"xsd: /purchaseOrder: unexpected element <bogus>"}},
	{132, 0x83dba2833a14340c, []string{"xsd: /purchaseOrder: missing required element <item>"}},
	{368, 0x15e542bbb45c4a11, []string{"xsd: /purchaseOrder/express: not a valid boolean: \"yes\""}},
	{331, 0xd5347aae6ddf0fe2, []string{"xsd: /purchaseOrder: undeclared attribute \"color\""}},
	{325, 0xa7bffe6280dc9b27, []string{"xsd: /purchaseOrder: character content not allowed in element-only type"}},
	{422, 0x4e8a547010be4629, []string{"xsd: /purchaseOrder/item/@sku: length 1 below minLength 2", "xsd: /purchaseOrder/item: expected <quantity>, found <price>"}},
	{518, 0x92951726afe29f0c, []string{"xsd: /purchaseOrder/date: element children not allowed in simple type date", "xsd: /purchaseOrder/item: unexpected element <note>", "xsd: /purchaseOrder/express: not a valid boolean: \"maybe\""}},
	{139, 0x1926c21871dc2dcc, nil},
	{141, 0x5b0509e38b0c190b, nil},
	{193, 0x70e07d523eb8f7e4, nil},
	{89, 0x9f6dff99ea547202, []string{"xsd: /cfg: missing required element <b> in all-group"}},
	{183, 0x1048289272fe4802, []string{"xsd: /cfg: unexpected element <a>"}},
	{57, 0x7eb8d1ea82a1475b, nil},
	{59, 0xca59d3aede6e3f40, []string{"xsd: /paint: value \"blue\" not in enumeration"}},
	{53, 0x9d5454888761ae21, nil},
	{53, 0x9d5454888761ae21, []string{"xsd: /p: value -1 below minInclusive 0"}},
	{53, 0xf1bec58066414dc3, []string{"xsd: /p: value 101 above maxInclusive 100"}},
	{255, 0xb84770b00bb0428f, nil},
	{136, 0x7a3eea222a4e3685, []string{"xsd: /section/section: unexpected element <other>"}},
}
