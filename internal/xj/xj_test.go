package xj

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/workload"
	"repro/internal/xmldom"
)

func mustParse(t *testing.T, src string) *xmldom.Node {
	t.Helper()
	doc, err := xmldom.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func translate(t *testing.T, src string) string {
	t.Helper()
	out, err := Translate(mustParse(t, src))
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return string(out)
}

func TestTranslateShapes(t *testing.T) {
	cases := []struct {
		name, xml, want string
	}{
		{"text leaf", `<a>hi</a>`, `{"a":"hi"}`},
		{"empty leaf", `<a/>`, `{"a":null}`},
		{"attrs only", `<a id="1"/>`, `{"a":{"@id":"1"}}`},
		{"attr and text", `<a id="1">hi</a>`, `{"a":{"@id":"1","#text":"hi"}}`},
		{"nested", `<a><b>x</b><c>y</c></a>`, `{"a":{"b":"x","c":"y"}}`},
		{"repeated siblings", `<a><b>1</b><b>2</b></a>`, `{"a":{"b":["1","2"]}}`},
		{"interleaved repeats", `<a><b>1</b><c>x</c><b>2</b></a>`,
			`{"a":{"b":["1","2"],"c":"x"}}`},
		{"escaping", `<a>he said "hi" &amp; left</a>`, `{"a":"he said \"hi\" & left"}`},
		{"whitespace trimmed", "<a>\n  <b>x</b>\n</a>", `{"a":{"b":"x"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := translate(t, tc.xml); got != tc.want {
				t.Fatalf("got %s want %s", got, tc.want)
			}
		})
	}
}

func TestTranslateNoElement(t *testing.T) {
	// A bare text node is not translatable.
	if _, err := Translate(&xmldom.Node{Kind: xmldom.Text, Data: "x"}); err != ErrNoElement {
		t.Fatalf("text node: err = %v, want ErrNoElement", err)
	}
	// Nor is a document with no document element.
	if _, err := Translate(&xmldom.Node{Kind: xmldom.Document}); err != ErrNoElement {
		t.Fatalf("empty document: err = %v, want ErrNoElement", err)
	}
}

// TestTranslateWorkloadMessages runs the real SOAP generator output
// through the translator: every message must produce valid JSON with
// the envelope root, and translation must be deterministic.
func TestTranslateWorkloadMessages(t *testing.T) {
	for i := 0; i < 32; i++ {
		msg := workload.SOAPMessage(i)
		doc, err := xmldom.Parse(msg)
		if err != nil {
			t.Fatalf("msg %d: parse: %v", i, err)
		}
		out, err := Translate(doc)
		if err != nil {
			t.Fatalf("msg %d: translate: %v", i, err)
		}
		var v map[string]any
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatalf("msg %d: invalid JSON: %v\n%s", i, err, out)
		}
		if _, ok := v["soap:Envelope"]; !ok {
			t.Fatalf("msg %d: missing envelope root: %s", i, out[:120])
		}
		again, err := Translate(doc)
		if err != nil || !bytes.Equal(out, again) {
			t.Fatalf("msg %d: translation not deterministic", i)
		}
	}
}

func BenchmarkTranslate(b *testing.B) {
	doc, err := xmldom.Parse(workload.SOAPMessage(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Translate(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTranslateAllocs pins the allocation cost beside the code: output is
// built in pooled scratch, so a translation allocates its result and
// nothing else (one spare for a pool miss after a GC).
func TestTranslateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	doc, err := sp.Parse(workload.SOAPMessageSeeded(1, workload.MessageBytes, 1))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := Translate(doc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("%v allocs per Translate, want <= 2", allocs)
	}
}

// TestAppendTranslate checks the append form against Translate: the same
// bytes after whatever dst already held, nothing allocated once dst has
// room, and dst untouched on error.
func TestAppendTranslate(t *testing.T) {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	doc, err := sp.Parse(workload.SOAPMessageSeeded(2, workload.MessageBytes, 2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Translate(doc)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTranslate([]byte("prefix"), doc)
	if err != nil || !bytes.Equal(buf, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendTranslate = %.40q, %v", buf, err)
	}
	if got, err := AppendTranslate(buf[:3], &xmldom.Node{Kind: xmldom.Document}); err != ErrNoElement || string(got) != "pre" {
		t.Fatalf("no element: %q, %v", got, err)
	}
	if raceflag.Enabled {
		return // sync.Pool drops items under the race detector
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if buf, err = AppendTranslate(buf[:0], doc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per AppendTranslate into a grown buffer, want 0", allocs)
	}
}
