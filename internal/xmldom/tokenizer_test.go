package xmldom_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xmldom/xmltest"
)

// hostileDocs are the cases the Tokenizer's bulk scans, dispatch and
// end-tag match are most likely to get wrong: near-miss end tags, entities
// at run and buffer edges, non-ASCII name bytes, truncated markup, and
// markup kinds back to back.
var hostileDocs = []string{
	`<a></a >`,
	"<a></a\n\t>",
	`<a></ab>`,
	`<ab></a>`,
	`<a></a:b>`,
	`<a:b></a:b>`,
	`<a></A>`,
	`<a></a`,
	`<a></`,
	`<a></>`,
	`<a></ a>`,
	`<a>x&amp;</a>`,
	`<a>x&amp;`,
	`<a>x&</a>`,
	`<a>&a<b;</a>`,
	`<a>x&amp;&lt;&#65;y&gt;</a>`,
	`<a>&#0;&#1;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#0000000065;&#x00000000000000042;</a>`,
	`<a>&#00000000000000000000000000000065</a>`,
	`<a b="&#x110000;"/>`,
	`<a b="&#0000000000000000000065;"/>`,
	`<a b="&#000000000000000000000<"/>`,
	"<\xc3\xa9 \xc3\xa8=\"v\">t\xff</\xc3\xa9>",
	"<a\x80b></a\x80b>",
	"<\x80></\x81>",
	`<a><!x</a>`,
	`<!x`,
	`<a><`,
	`<a>x<`,
	`<`,
	`<a><![CDATA[x]]><?p d?><!--c--></a>`,
	`<a><![CDATA[]]><??><!----></a>`,
	`<a><![CDAT</a>`,
	`<a><!-</a>`,
	`<a b="x`,
	`<a b='x&amp;`,
	`<a b="x&amp"/>`,
	`<a b="x&a"b;"/>`,
	`<a b="x&a<b;"/>`,
	`<a b="x<&amp;"/>`,
	`<a b="&amp;&amp;&amp;&amp;&amp;&amp;&amp;&amp;"/>`,
	`<a b="&amp;&amp;<&amp;&bad;"/>`,
	`<a b="&amp;&amp;&bad;<"/>`,
	`<a b="&lt;" c='"' d="'"/>`,
	`<a b="1"/><!---->  `,
	`<a b = "1" c= '2' d ="3"></a>`,
	`<a b="1"  / >`,
	`<a/ >`,
	"<a>\r\n<b/>\t</a>",
	`<a><b><c></c></b></a>`,
	`<a><b></a></b>`,
	`<a-b.c_d:e1></a-b.c_d:e1>`,
	`<_a></_a>`,
	`<1a/>`,
	`<a>]]></a>`,
}

// checkAgainstOracle runs tz and the oracle scanner over src and fails on
// the first token, position after a token, or error that differs. Errors
// compare by their text, which carries the offset and the message.
func checkAgainstOracle(t *testing.T, tz *xmldom.Tokenizer, src []byte) {
	t.Helper()
	want, wantErr := xmldom.OracleTrace(src)
	tz.Reset(src)
	for i := 0; ; i++ {
		tok, err := tz.Next()
		if err != nil {
			if i != len(want) || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: token %d: error %v; oracle gave %d tokens then %v", src, i, err, len(want), wantErr)
			}
			return
		}
		if i >= len(want) {
			t.Fatalf("%q: token %d %+v; oracle stopped with %v", src, i, *tok, wantErr)
		}
		if w := want[i]; !sameToken(*tok, w.Tok) || tz.Pos() != w.Pos {
			t.Fatalf("%q: token %d %+v at %d; oracle %+v at %d", src, i, *tok, tz.Pos(), w.Tok, w.Pos)
		}
		if tok.Kind == xmldom.TokEOF {
			if wantErr != nil || i != len(want)-1 {
				t.Fatalf("%q: EOF at token %d; oracle gave %d tokens then %v", src, i, len(want), wantErr)
			}
			return
		}
	}
}

func sameToken(a, b xmldom.Token) bool {
	if a.Kind != b.Kind || !bytes.Equal(a.Name, b.Name) || !bytes.Equal(a.Raw, b.Raw) ||
		a.SelfClose != b.SelfClose || a.HasEntity != b.HasEntity || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		x, y := a.Attrs[i], b.Attrs[i]
		if !bytes.Equal(x.Name, y.Name) || !bytes.Equal(x.RawValue, y.RawValue) || x.HasEntity != y.HasEntity {
			return false
		}
	}
	return true
}

// oracleSeeds is the differential corpus, the hostile cases, and a few
// larger seeded workload messages.
func oracleSeeds() [][]byte {
	docs := xmltest.Corpus()
	for _, d := range hostileDocs {
		docs = append(docs, []byte(d))
	}
	for i := 0; i < 8; i++ {
		docs = append(docs, workload.SOAPMessageSeeded(i, 16<<10, uint64(i)))
	}
	return docs
}

// TestTokenizerMatchesOracle checks the Tokenizer against the scanner it
// replaced over the seeded corpus, the hostile cases, and every prefix of
// each hostile case and of a workload message, so that each truncation
// point a scan can meet is an input.
func TestTokenizerMatchesOracle(t *testing.T) {
	var tz xmldom.Tokenizer
	for _, src := range oracleSeeds() {
		checkAgainstOracle(t, &tz, src)
	}
	for _, d := range append([]string{string(workload.SOAPMessageSized(3, 1500))}, hostileDocs...) {
		for n := 0; n <= len(d); n++ {
			checkAgainstOracle(t, &tz, []byte(d[:n]))
		}
	}
}

// TestAttrEntitiesLinear checks that an attribute value made of entities
// tokenizes in time linear in its length: a value sixteen times as long
// may take sixteen times as long, not the 256× a rescan per entity costs.
// The bound leaves 4× for timer noise; the best of five runs is taken.
func TestAttrEntitiesLinear(t *testing.T) {
	doc := func(n int) []byte {
		return []byte(`<a b="` + strings.Repeat("&amp;", n) + `"/>`)
	}
	best := func(src []byte) time.Duration {
		var tz xmldom.Tokenizer
		min := time.Duration(1<<63 - 1)
		for r := 0; r < 5; r++ {
			tz.Reset(src)
			start := time.Now()
			if tok, err := tz.Next(); err != nil || !tok.Attrs[0].HasEntity {
				t.Fatalf("%d-byte value: %v", len(src), err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(doc(1<<12)), best(doc(1<<16))
	if large > 64*small {
		t.Fatalf("16× the entities took %v against %v: %.0f×", large, small, float64(large)/float64(small))
	}
}

// FuzzTokenizerVsOracle is the differential fuzzer between the Tokenizer
// and the scanner it replaced. FuzzStreamVsDOM cannot stand in for it:
// both of its parses sit on the same tokenizer.
func FuzzTokenizerVsOracle(f *testing.F) {
	for _, src := range oracleSeeds() {
		f.Add(src)
	}
	var tz xmldom.Tokenizer
	f.Fuzz(func(t *testing.T, src []byte) {
		checkAgainstOracle(t, &tz, src)
	})
}

// benchMessages is the layer benchmarks' input: 64 seeded 5 KB workload
// messages, cycled so item and filler counts vary as in a workload pool.
func benchMessages() (msgs [][]byte, total int64) {
	for i := 0; i < 64; i++ {
		m := workload.SOAPMessageSeeded(i, workload.MessageBytes, 1)
		msgs = append(msgs, m)
		total += int64(len(m))
	}
	return msgs, total
}

// BenchmarkTokenize pulls every token of one message per op.
func BenchmarkTokenize(b *testing.B) {
	msgs, total := benchMessages()
	b.SetBytes(total / int64(len(msgs)))
	b.ReportAllocs()
	var tz xmldom.Tokenizer
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tz.Reset(msgs[n%len(msgs)])
		for {
			tok, err := tz.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == xmldom.TokEOF {
				break
			}
		}
	}
}

// BenchmarkStreamParse builds one message's pooled tree per op: the
// tokenizer plus the live tree builder.
func BenchmarkStreamParse(b *testing.B) {
	msgs, total := benchMessages()
	b.SetBytes(total / int64(len(msgs)))
	b.ReportAllocs()
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := sp.Parse(msgs[n%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}
