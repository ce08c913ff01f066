package session

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVRow is one parsed line of a session artifact — the flattened schema
// Appender emits. Per-CPU detail stays flattened (the CSV never carried
// it); the fields here are the ones a reader of a recorded session
// checks.
type CSVRow struct {
	// Role is the row's node role ("gateway", "backend") from the
	// recorder's lead column; "" in a CSV without one.
	Role         string
	TMS          int64
	WindowSec    float64
	Messages     uint64
	MsgsPerSec   float64
	BytesIn      uint64
	Shed         uint64
	LatencyP50US uint64
	LatencyP99US uint64
	CPI          float64
	CacheMPI     float64
	BrMPR        float64
	Source       string
	CPUs         int
	GOMAXPROCS   int
	Goroutines   int
	GCCPUPct     float64
}

// ReadCSV parses a session artifact written by an Appender. Columns are
// located by header name, so the reader tolerates schema growth (new
// trailing columns) and survives column reordering.
func ReadCSV(r io.Reader) ([]CSVRow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("session: csv header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	for _, required := range []string{"t_ms", "window_sec", "messages", "msgs_per_sec"} {
		if _, ok := col[required]; !ok {
			return nil, fmt.Errorf("session: csv missing column %q", required)
		}
	}
	var out []CSVRow
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("session: csv row %d: %w", len(out)+2, err)
		}
		// A field parser per row: absent columns (older schema) and empty
		// cells stay zero — that's schema tolerance — but a non-empty cell
		// that doesn't parse is corruption, reported as a row-level error
		// naming the column rather than silently read as zero.
		p := fieldParser{rec: rec, col: col}
		tms := p.i64("t_ms")
		row := CSVRow{
			Role:         p.s("role"),
			TMS:          tms,
			WindowSec:    p.f("window_sec"),
			Messages:     p.u("messages"),
			MsgsPerSec:   p.f("msgs_per_sec"),
			BytesIn:      p.u("bytes_in"),
			Shed:         p.u("shed"),
			LatencyP50US: p.u("latency_p50_us"),
			LatencyP99US: p.u("latency_p99_us"),
			CPI:          p.f("cpi"),
			CacheMPI:     p.f("cache_mpi_pct"),
			BrMPR:        p.f("br_mpr_pct"),
			Source:       p.s("derived_source"),
			CPUs:         p.i("cpus"),
			GOMAXPROCS:   p.i("gomaxprocs"),
			Goroutines:   p.i("goroutines"),
			GCCPUPct:     p.f("gc_cpu_pct"),
		}
		if p.get(rec, "t_ms") == "" {
			p.fail("t_ms", "") // t_ms is mandatory: an empty cell is corruption too
		}
		if p.err != nil {
			return nil, fmt.Errorf("session: csv row %d: %w", len(out)+2, p.err)
		}
		out = append(out, row)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("session: csv has no sample rows")
	}
	return out, nil
}

// fieldParser reads one record's cells by column name, accumulating the
// first malformed-cell error. Missing columns and empty cells parse as
// zero values (schema tolerance); non-empty garbage is an error.
type fieldParser struct {
	rec []string
	col map[string]int
	err error
}

func (p *fieldParser) get(rec []string, name string) string {
	i, ok := p.col[name]
	if !ok || i >= len(rec) {
		return ""
	}
	return rec[i]
}

func (p *fieldParser) fail(name, raw string) {
	if p.err == nil {
		p.err = fmt.Errorf("bad %s %q", name, raw)
	}
}

func (p *fieldParser) s(name string) string { return p.get(p.rec, name) }

func (p *fieldParser) f(name string) float64 {
	raw := p.get(p.rec, name)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		p.fail(name, raw)
	}
	return v
}

func (p *fieldParser) u(name string) uint64 {
	raw := p.get(p.rec, name)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		p.fail(name, raw)
	}
	return v
}

func (p *fieldParser) i(name string) int {
	raw := p.get(p.rec, name)
	if raw == "" {
		return 0
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		p.fail(name, raw)
	}
	return v
}

func (p *fieldParser) i64(name string) int64 {
	raw := p.get(p.rec, name)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		p.fail(name, raw)
	}
	return v
}
