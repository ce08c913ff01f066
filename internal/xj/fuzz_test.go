package xj

import (
	"bytes"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmldom/xmltest"
)

// FuzzXJTranslate is the differential fuzzer over Translate and the
// reference kept in oracle_test.go: the JSON must be byte-identical, from a
// Parse tree and from the gateway's StreamParser tree, and a second call
// through the reused scratch must not change it.
func FuzzXJTranslate(f *testing.F) {
	for _, doc := range append(xmltest.Corpus(), goldenDocs()...) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		doc, err := xmldom.Parse(src)
		if err != nil {
			return
		}
		want, wantErr := oracleTranslate(doc)
		got, err := Translate(doc)
		if err != wantErr || !bytes.Equal(got, want) {
			t.Fatalf("%q:\n got %s (%v)\nwant %s (%v)", src, got, err, want, wantErr)
		}
		sp := xmldom.AcquireStreamParser()
		defer sp.Release()
		live, err := sp.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Translate(live)
		if err != wantErr || !bytes.Equal(again, want) {
			t.Fatalf("%q from a StreamParser tree:\n got %s (%v)\nwant %s (%v)", src, again, err, want, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: the second Translate overwrote the first's result", src)
		}
	})
}
