package campaign

import (
	"io/fs"
	"path/filepath"
	"testing"
	"time"
)

// TestWidthAtConstant pins the trivial envelope.
func TestWidthAtConstant(t *testing.T) {
	p := &Phase{Shape: ShapeConstant, Conns: 7, DurationMS: 1000}
	for _, at := range []time.Duration{0, 500 * time.Millisecond, time.Second, 2 * time.Second} {
		if w := p.WidthAt(at); w != 7 {
			t.Fatalf("constant width at %v = %d, want 7", at, w)
		}
	}
}

// TestWidthAtRamp checks the linear interpolation at the edge and
// midpoint, including a downward ramp.
func TestWidthAtRamp(t *testing.T) {
	p := &Phase{Shape: ShapeRamp, Conns: 2, ConnsTo: 10, DurationMS: 1000}
	cases := []struct {
		at   time.Duration
		want int
	}{
		{0, 2},
		{250 * time.Millisecond, 4},
		{500 * time.Millisecond, 6},
		{time.Second, 10},
		{-time.Second, 2},     // clamped to phase start
		{2 * time.Second, 10}, // clamped to phase end
	}
	for _, c := range cases {
		if w := p.WidthAt(c.at); w != c.want {
			t.Fatalf("ramp width at %v = %d, want %d", c.at, w, c.want)
		}
	}
	down := &Phase{Shape: ShapeRamp, Conns: 10, ConnsTo: 2, DurationMS: 1000}
	if w := down.WidthAt(500 * time.Millisecond); w != 6 {
		t.Fatalf("down-ramp midpoint = %d, want 6", w)
	}
}

// TestWidthAtDiurnal checks trough at the edges and peak at the
// midpoint.
func TestWidthAtDiurnal(t *testing.T) {
	p := &Phase{Shape: ShapeDiurnal, Conns: 2, ConnsTo: 20, DurationMS: 2000}
	if w := p.WidthAt(0); w != 2 {
		t.Fatalf("diurnal start = %d, want 2", w)
	}
	if w := p.WidthAt(time.Second); w != 20 {
		t.Fatalf("diurnal midpoint = %d, want 20", w)
	}
	if w := p.WidthAt(2 * time.Second); w != 2 {
		t.Fatalf("diurnal end = %d, want 2", w)
	}
	// Quarter point: swell = (1-cos(pi/2))/2 = 0.5 → 2 + 18*0.5 = 11.
	if w := p.WidthAt(500 * time.Millisecond); w != 11 {
		t.Fatalf("diurnal quarter = %d, want 11", w)
	}
}

// TestWidthAtFlash checks the step height during the burst and the
// exponential decay after it.
func TestWidthAtFlash(t *testing.T) {
	p := &Phase{Shape: ShapeFlash, Conns: 4, BurstConns: 20, BurstMS: 200, DecayMS: 100, DurationMS: 1000}
	if w := p.WidthAt(0); w != 20 {
		t.Fatalf("flash at burst start = %d, want 20", w)
	}
	if w := p.WidthAt(199 * time.Millisecond); w != 20 {
		t.Fatalf("flash inside burst = %d, want 20", w)
	}
	// One decay constant past the burst: 4 + 16/e ≈ 9.886 → 10.
	if w := p.WidthAt(300 * time.Millisecond); w != 10 {
		t.Fatalf("flash one tau after burst = %d, want 10", w)
	}
	// Far into the decay it settles at the base width.
	if w := p.WidthAt(time.Second); w != 4 {
		t.Fatalf("flash settled = %d, want 4", w)
	}
	if pk := p.PeakWidth(); pk != 20 {
		t.Fatalf("flash peak = %d, want 20", pk)
	}
}

// TestWidthAtNeverZero pins the floor: a live phase never drops to zero
// senders even when the envelope math rounds below one.
func TestWidthAtNeverZero(t *testing.T) {
	p := &Phase{Shape: ShapeRamp, Conns: 1, ConnsTo: 1, DurationMS: 1000}
	for at := 0; at <= 1000; at += 100 {
		if w := p.WidthAt(time.Duration(at) * time.Millisecond); w < 1 {
			t.Fatalf("width at %dms = %d, want >= 1", at, w)
		}
	}
}

// TestSpecValidate covers defaults and the rejection paths.
func TestSpecValidate(t *testing.T) {
	good := `{
		"name": "t",
		"nodes": [{"kind": "attach", "role": "backend", "addr": "127.0.0.1:1"},
			{"kind": "attach", "role": "gateway", "addr": "127.0.0.1:2"}],
		"phases": [
			{"name": "a", "shape": "ramp", "duration_ms": 100, "conns": 1, "conns_to": 4},
			{"name": "b", "shape": "flash", "duration_ms": 100, "conns": 2, "burst_conns": 8,
			 "faults": [{"at_ms": 50, "backend": 0, "fault": {"error_rate": 0.5}}]}
		]
	}`
	s, err := parseSpec([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes == 0 || s.SampleIntervalMS != 250 || s.TimeoutMS != 10000 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if s.Phases[0].UseCase != "FR" {
		t.Fatalf("usecase default = %q, want FR", s.Phases[0].UseCase)
	}
	if s.Phases[1].BurstMS != 25 || s.Phases[1].DecayMS != 25 {
		t.Fatalf("flash defaults: burst=%d decay=%d, want 25/25", s.Phases[1].BurstMS, s.Phases[1].DecayMS)
	}

	bad := []string{
		`{"phases": []}`, // no phases
		`{"phases": [{"shape": "sawtooth", "duration_ms": 1, "conns": 1}]}`,                // unknown shape
		`{"phases": [{"shape": "ramp", "duration_ms": 1, "conns": 1}]}`,                    // ramp without conns_to
		`{"phases": [{"shape": "flash", "duration_ms": 1, "conns": 2, "burst_conns": 2}]}`, // burst <= base
		`{"phases": [{"duration_ms": 1, "conns": 1, "usecase": "NOPE"}]}`,                  // unknown use case
		`{"phases": [{"duration_ms": 1, "conns": 1,
			"faults": [{"at_ms": 0, "backend": 0, "fault": {}}]}]}`, // fault without backends
		`{"nodes": [{"kind": "attach", "role": "backend", "addr": "x:1"}, {"kind": "attach", "role": "gateway", "addr": "x:2"}],
			"phases": [{"duration_ms": 1, "conns": 1,
			"faults": [{"at_ms": 0, "backend": 1, "fault": {}}]}]}`, // fault past the one backend node
		`{"phases": [{"duration_ms": 100, "conns": 1}],
			"seed": 1,
			"typo_knob": true}`, // unknown field
		`{"trace_every": -1, "phases": [{"duration_ms": 1, "conns": 1}]}`,   // negative trace cadence
		`{"nodes": [{"role": "gateway", "addr": "x:1"}, {"role": "load"}]}`, // the campaign is the load
	}
	for i, doc := range bad {
		if _, err := parseSpec([]byte(doc)); err == nil {
			t.Fatalf("bad spec %d accepted: %s", i, doc)
		}
	}
}

// TestShippedSpecsValidate loads and validates every JSON document under
// examples/, so the shipped campaigns (constant.json is the single run)
// cannot rot.
func TestShippedSpecsValidate(t *testing.T) {
	var n int
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		n++
		s, err := LoadSpec(path)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no spec under examples/")
	}
}
