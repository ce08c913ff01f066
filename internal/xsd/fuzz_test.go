package xsd_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/perf/trace/tracetest"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xmldom/xmltest"
	"repro/internal/xsd"
)

// maxOracleDepth bounds the documents the reference validator is run on:
// it validates every optional subtree twice, so on the recursive nest
// schema its time doubles per level.
const maxOracleDepth = 12

func depth(n *xmldom.Node) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, depth(c))
	}
	return d + 1
}

// checkAgainstOracle validates src against s with the validator and with
// the reference it replaced, each behind its own metered parse, and
// requires the same emitted stream and the same errors in the same order;
// the uninstrumented entry point over a StreamParser tree must report the
// same errors again. The verdict-only entry points must agree with the
// report: xsd.Valid on the live tree, and the instrumented Valid the
// simulator runs, which must also emit the report's stream.
func checkAgainstOracle(t *testing.T, s *xsd.Schema, src []byte) {
	t.Helper()
	got := validateInstrumented(t, s, src)

	mp := xmldom.AcquireStreamParser()
	defer mp.Release()
	vem := tracetest.NewHashEmitter()
	vdoc, err := parseMetered(mp, src, vem)
	if err != nil {
		t.Fatal(err)
	}
	if valid := xsd.NewValidator(s, vem).Valid(vdoc); valid != (len(got.errs) == 0) || vem.Events() != got.events || vem.Sum64() != got.hash {
		t.Fatalf("%q: instrumented Valid = %v emitting {%d, %#x}; Validate reports %q emitting {%d, %#x}",
			src, valid, vem.Events(), vem.Sum64(), got.errs, got.events, got.hash)
	}

	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	live, err := sp.Parse(src)
	if err != nil {
		t.Fatalf("Parse rejects what ParseMetered accepted: %v", err)
	}
	var plain []string
	for _, e := range xsd.Validate(s, live) {
		plain = append(plain, e.Error())
	}
	if !slices.Equal(plain, got.errs) {
		t.Fatalf("%q: Validate reports %q, instrumented Validator %q", src, plain, got.errs)
	}
	if valid := xsd.Valid(s, live); valid != (len(plain) == 0) {
		t.Fatalf("%q: Valid = %v, Validate reports %q", src, valid, plain)
	}
	if depth(live) > maxOracleDepth {
		return
	}

	em := tracetest.NewHashEmitter()
	doc, err := parseMetered(mp, src, em)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range newOracleValidator(s, em).Validate(doc) {
		want = append(want, e.Error())
	}
	if !slices.Equal(got.errs, want) {
		t.Fatalf("%q: errors %q, oracle %q", src, got.errs, want)
	}
	if got.events != em.Events() || got.hash != em.Sum64() {
		t.Fatalf("%q: emitted {%d, %#x}, oracle {%d, %#x}", src, got.events, got.hash, em.Events(), em.Sum64())
	}
}

// FuzzXSDValidate is the differential fuzzer over the validator and the
// reference kept in oracle_test.go: any document on which they disagree —
// verdict, error text or order, or the micro-op stream the simulator
// consumes — is a bug, as is any the validator panics or hangs on.
func FuzzXSDValidate(f *testing.F) {
	var names []string
	for name := range testSchemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		for _, doc := range xmltest.Corpus() {
			f.Add(doc, uint8(i))
		}
		for _, c := range goldenCases() {
			if c.schema == name {
				f.Add(c.doc, uint8(i))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, schema uint8) {
		if _, err := xmldom.Parse(src); err != nil {
			return
		}
		checkAgainstOracle(t, testSchemas[names[int(schema)%len(names)]], src)
	})
}

// FuzzParseSchema feeds arbitrary bytes to the schema compiler. Whatever
// it accepts must then validate every corpus document and a seeded SOAP
// message without panicking: a schema that compiles and then panics in
// Validate (PR 20 found one by reading) is a bug in the compiler's
// refusals.
func FuzzParseSchema(f *testing.F) {
	for _, src := range []string{workload.OrderSchemaXSD, orderSchema, allSchema, enumSchema, rangeSchema, nestSchema} {
		f.Add([]byte(src))
	}
	var docs []*xmldom.Node
	for _, src := range append(xmltest.Corpus(), workload.SOAPMessageSeeded(1, workload.MessageBytes, 7)) {
		if doc, err := xmldom.Parse(src); err == nil {
			docs = append(docs, doc)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		s, err := xsd.ParseSchema(src)
		if err != nil {
			return
		}
		for _, doc := range docs {
			xsd.Validate(s, doc)
		}
	})
}
