package campaign

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// goodSpec is a campaign document using every level of the spec: global
// knobs, phases, fault steps and a fault body.
const goodSpec = `{
	"name": "t",
	"backends": ["127.0.0.1:1"],
	"phases": [
		{"name": "a", "shape": "ramp", "duration_ms": 100, "conns": 1, "conns_to": 4},
		{"name": "b", "shape": "flash", "duration_ms": 100, "conns": 2, "burst_conns": 8,
		 "faults": [{"at_ms": 50, "backend": 0, "fault": {"error_rate": 0.5}}]}
	]
}`

// TestDecodeSpecIsStrict: one document of known fields, at any depth, and
// nothing after it but white space.
func TestDecodeSpecIsStrict(t *testing.T) {
	for _, doc := range []string{goodSpec, "{}", " {} \n\t"} {
		if _, err := DecodeSpec([]byte(doc)); err != nil {
			t.Errorf("%.40q refused: %v", doc, err)
		}
	}
	for _, doc := range []string{
		`{}{"bogus":1}`,
		`{} junk`,
		`{}{}`,
		goodSpec + `]`,
		`{"bogus":1}`,
		`{"phases":[{"bogus":1}]}`,
		`{"phases":[{"faults":[{"fault":{"bogus":1}}]}]}`,
	} {
		if _, err := DecodeSpec([]byte(doc)); err == nil {
			t.Errorf("%.60q accepted", doc)
		}
	}
}

// FuzzDecodeSpec: whatever DecodeSpec accepts is one document it can
// read back — re-encoded, it decodes to the same spec — and it refuses
// the same document with a second one after it. It never panics.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{goodSpec, "{}", "null", `{}{"bogus":1}`, `{} junk`, `{"phases":[{"bogus":1}]}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%q: accepted spec does not encode: %v", data, err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%q: re-encoded spec %s refused: %v", data, enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%q: round trip %s -> %s", data, enc, enc2)
		}
		if _, err := DecodeSpec(append(slices.Clip(data), "{}"...)); err == nil {
			t.Fatalf("%q: accepted with a second document after it", data)
		}
	})
}
