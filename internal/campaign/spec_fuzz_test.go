package campaign

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// goodSpec is a campaign document using every level of the spec: global
// knobs, a topology with node flags, phases, fault steps and a fault body.
const goodSpec = `{
	"name": "t",
	"nodes": [
		{"kind": "launch", "role": "backend", "addr": "127.0.0.1:9081", "count": 2, "flags": ["-delay", "1ms"]},
		{"kind": "inproc", "role": "gateway", "idle_timeout_ms": 200}
	],
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
		if _, err := decodeSpec([]byte(doc)); err != nil {
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
		`{"nodes":[{"role":"gateway","addr":"x:1","bogus":1}]}`,
		`{"sweep":{"conns":[1]}}`,
		`{"trace":true,"trace_client_every":4}`,
		`{"scrape_interval_ms":100}`,
		`{"addr":"x:1"}`,
		`{"backends":["x:1"]}`,
	} {
		if _, err := decodeSpec([]byte(doc)); err == nil {
			t.Errorf("%.60q accepted", doc)
		}
	}
}

// TestTopologySpecIsStrict: a spec with a topology parses whole — nodes
// with flags, phases and fault steps that index the backend nodes — and
// a typo anywhere beside the nodes block, a fleet-era field or wrapper,
// a load node or a second document refuses it before any node starts.
func TestTopologySpecIsStrict(t *testing.T) {
	good := `{
		"nodes": [
			{"role": "backend", "addr": "127.0.0.1:9081"},
			{"role": "gateway", "addr": "127.0.0.1:8080", "flags": ["-trace"]}
		],
		"phases": [{"duration_ms": 100, "conns": 1,
			"faults": [{"at_ms": 10, "backend": 0, "fault": {"error_rate": 0.5}}]}]
	}`
	if _, err := parseSpec([]byte(good)); err != nil {
		t.Fatalf("good topology spec refused: %v", err)
	}
	nodes := `"nodes": [{"kind": "attach", "role": "gateway", "addr": "x:1"}]`
	for _, doc := range []string{
		`{` + nodes + `, "bogus": 1}`,
		`{` + nodes + `, "sweep": {"conns": [1]}}`,
		`{` + nodes + `, "trace": true, "trace_client_every": 4}`,
		`{` + nodes + `, "out_dir": "out"}`,
		`{"nodes": [{"kind": "attach", "role": "gateway", "addr": "x:1"}, {"role": "load"}]}`,
		`{` + nodes + `, "campaign": {"phases": [{"duration_ms": 1, "conns": 1}]}}`,
		`{` + nodes + `, "phases": [{"duration_ms": 1, "conns": 1, "bogus": 1}]}`,
		`{` + nodes + `, "phases": [{"duration_ms": 1, "conns": 1, "faults": [{"fault": {"bogus": 1}}]}]}`,
		`{` + nodes + `}{"bogus": 1}`,
		`{` + nodes + `} junk`,
	} {
		if _, err := parseSpec([]byte(doc)); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}

// FuzzDecodeSpec: whatever decodeSpec accepts is one document it can
// read back — re-encoded, it decodes to the same spec — and it refuses
// the same document with a second one after it; a spec Validate accepts,
// topology included, re-encodes to one that parses back unchanged, so
// the defaults Validate fills are a fixed point. It never panics.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{goodSpec, "{}", "null", `{}{"bogus":1}`, `{} junk`, `{"phases":[{"bogus":1}]}`,
		`{"nodes":[{"kind":"attach","role":"gateway","addr":"x:1"}],"trace_every":4}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%q: accepted spec does not encode: %v", data, err)
		}
		again, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("%q: re-encoded spec %s refused: %v", data, enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%q: round trip %s -> %s", data, enc, enc2)
		}
		if _, err := decodeSpec(append(slices.Clip(data), "{}"...)); err == nil {
			t.Fatalf("%q: accepted with a second document after it", data)
		}
		if s.Validate() != nil {
			return
		}
		valid, _ := json.Marshal(s)
		back, err := parseSpec(valid)
		if err != nil {
			t.Fatalf("%q: validated spec %s refused: %v", data, valid, err)
		}
		if enc2, _ := json.Marshal(back); !bytes.Equal(valid, enc2) {
			t.Fatalf("%q: validation is not a fixed point: %s -> %s", data, valid, enc2)
		}
	})
}
