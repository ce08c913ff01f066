package fleet

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// goodConfig is a fleet config with an embedded campaign.
const goodConfig = `{
	"out_dir": "out",
	"nodes": [
		{"role": "backend", "addr": "127.0.0.1:9081"},
		{"role": "gateway", "addr": "127.0.0.1:8080", "flags": ["-trace"]}
	],
	"campaign": {"name": "c", "phases": [{"duration_ms": 100, "conns": 1,
		"faults": [{"at_ms": 10, "backend": 0, "fault": {"error_rate": 0.5}}]}]}
}`

// TestParseConfigIsStrict: a typo anywhere — the embedded campaign
// included — or a second document refuses the config instead of running
// defaults.
func TestParseConfigIsStrict(t *testing.T) {
	if _, err := parseConfig([]byte(goodConfig)); err != nil {
		t.Fatalf("good config refused: %v", err)
	}
	nodes := `"nodes": [{"role": "gateway", "addr": "x:1"}]`
	for _, doc := range []string{
		`{` + nodes + `, "bogus": 1}`,
		`{` + nodes + `, "sweep": {"conns": [1], "bogus": 1}}`,
		`{` + nodes + `, "campaign": {"phases": [{"duration_ms": 1, "conns": 1, "bogus": 1}]}}`,
		`{` + nodes + `, "campaign": {"phases": [{"faults": [{"fault": {"bogus": 1}}]}]}}`,
		`{` + nodes + `}{"bogus": 1}`,
		`{` + nodes + `} junk`,
	} {
		if _, err := parseConfig([]byte(doc)); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}

// FuzzParseConfig: whatever parseConfig accepts is one valid document it
// reads back the same — re-encoded, it parses to the same config — and it
// refuses the same document with a second one after it. It never panics.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{goodConfig, `{"nodes":[{"role":"gateway","addr":"x:1"}]}`, `{}`, `{} junk`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseConfig(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%q: accepted config does not encode: %v", data, err)
		}
		again, err := parseConfig(enc)
		if err != nil {
			t.Fatalf("%q: re-encoded config %s refused: %v", data, enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%q: round trip %s -> %s", data, enc, enc2)
		}
		if _, err := parseConfig(append(slices.Clip(data), "{}"...)); err == nil {
			t.Fatalf("%q: accepted with a second document after it", data)
		}
	})
}
