package session

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteCSV pins the dump shape an Appender writes: header plus one
// row per sample with per-CPU CPI flattened to min/max.
func TestWriteCSV(t *testing.T) {
	samples := []Sample{
		{TMS: 1000, WindowSec: 0.1, Messages: 42, MsgsPerSec: 420, CPI: 1.5,
			DerivedSource: "hw",
			CPUs: []CPUSample{
				{CPU: 0, CPI: 1.2}, {CPU: 1, CPI: 1.9},
			}},
		{TMS: 1100, WindowSec: 0.1, DerivedSource: "model"},
	}
	var buf bytes.Buffer
	if err := NewAppender(&buf, true).Append(samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "t_ms,window_sec,messages") || !strings.Contains(lines[0], ",cpus,cpu_cpi_min,cpu_cpi_max,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.Contains(lines[1], ",2,1.2,1.9,") {
		t.Fatalf("row 1 missing CPU count and CPI bounds: %q", lines[1])
	}
	if !strings.Contains(lines[2], "model") {
		t.Fatalf("row 2 missing derived source: %q", lines[2])
	}
}

// TestReadCSVRoundTrip pins the reader against the writer: a dumped
// session parses back with the replay-relevant fields intact, and the
// offered-load helper folds shed messages back into the arrival rate.
func TestReadCSVRoundTrip(t *testing.T) {
	samples := []Sample{
		{TMS: 1000, WindowSec: 0.5, Messages: 100, MsgsPerSec: 200, Shed: 50,
			LatencyP50US: 800, LatencyP99US: 4000, CPI: 1.5, DerivedSource: "hw",
			CPUs:       []CPUSample{{CPU: 0, CPI: 1.2}, {CPU: 1, CPI: 1.9}},
			GOMAXPROCS: 1, Goroutines: 12, GCCPUPct: 0.5},
		{TMS: 1500, WindowSec: 0.5, Messages: 120, MsgsPerSec: 240, DerivedSource: "model"},
	}
	var buf bytes.Buffer
	if err := NewAppender(&buf, true).Append(samples); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d want 2", len(rows))
	}
	r := rows[0]
	if r.TMS != 1000 || r.Messages != 100 || r.MsgsPerSec != 200 || r.Shed != 50 {
		t.Fatalf("row 0 counters: %+v", r)
	}
	if r.LatencyP50US != 800 || r.LatencyP99US != 4000 || r.CPI != 1.5 || r.Source != "hw" {
		t.Fatalf("row 0 metrics: %+v", r)
	}
	// The scheduler width is recorded apart from the CPU count: a
	// replay models GOMAXPROCS servers, not the CPUs listed.
	if r.CPUs != 2 || r.GOMAXPROCS != 1 || r.Goroutines != 12 {
		t.Fatalf("row 0 gauges: %+v", r)
	}
	if rows[1].Source != "model" {
		t.Fatalf("row 1: %+v", rows[1])
	}

	// Header-only and missing-column inputs are rejected.
	if _, err := ReadCSV(strings.NewReader("t_ms,window_sec,messages,msgs_per_sec\n")); err == nil {
		t.Fatal("empty session accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("foreign csv accepted")
	}
}

// TestReadCSVCorruption pins the corrupt-cell contract: a non-empty cell
// that doesn't parse is a row-level error naming the column — never a
// silent zero — while empty cells and absent columns still read as
// zeros (schema tolerance).
func TestReadCSVCorruption(t *testing.T) {
	header := "t_ms,window_sec,messages,msgs_per_sec,cpi\n"
	cases := []struct {
		name, row, wantErr string
	}{
		{"garbage float", "1000,0.1,5,50,not-a-number\n", "cpi"},
		{"garbage uint", "1000,0.1,x,50,1.5\n", "messages"},
		{"garbage t_ms", "zzz,0.1,5,50,1.5\n", "t_ms"},
		{"empty t_ms", ",0.1,5,50,1.5\n", "t_ms"},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(header + tc.row))
		if err == nil {
			t.Fatalf("%s: corrupt row accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not name column %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(err.Error(), "row 2") {
			t.Fatalf("%s: error %q does not locate the row", tc.name, err)
		}
	}
	// Empty non-mandatory cells stay zeros.
	rows, err := ReadCSV(strings.NewReader(header + "1000,,5,50,\n"))
	if err != nil {
		t.Fatalf("empty cells rejected: %v", err)
	}
	if rows[0].WindowSec != 0 || rows[0].CPI != 0 || rows[0].Messages != 5 {
		t.Fatalf("row: %+v", rows[0])
	}
	// Extra leading columns (the recorder's CSV) are tolerated: the
	// reader locates columns by name, and keeps the node's role.
	merged := "phase,node,role,rel_ms," + header + "p1,gateway/gw0,gateway,120,1000,0.1,5,50,1.5\n"
	rows, err = ReadCSV(strings.NewReader(merged))
	if err != nil {
		t.Fatalf("recorder csv rejected: %v", err)
	}
	if rows[0].TMS != 1000 || rows[0].CPI != 1.5 || rows[0].Role != "gateway" {
		t.Fatalf("recorder row: %+v", rows[0])
	}
}

// TestAppender pins the incremental CSV contract: one header, rows
// flushed per Append, and resume mode (writeHeader=false) emitting rows
// only — together they append into one well-formed artifact.
func TestAppender(t *testing.T) {
	var buf bytes.Buffer
	a := NewAppender(&buf, true)
	if err := a.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]Sample{{TMS: 1}, {TMS: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]Sample{{TMS: 3}}); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 3 {
		t.Fatalf("rows=%d want 3", a.Rows())
	}
	// Resume into the same buffer: no second header.
	b := NewAppender(&buf, false)
	if err := b.Append([]Sample{{TMS: 4}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("artifact has %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if strings.Count(buf.String(), "t_ms,") != 1 {
		t.Fatalf("header repeated:\n%s", buf.String())
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].TMS != 4 {
		t.Fatalf("round trip rows: %+v", rows)
	}
}
