package session

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// csvHeader is the fixed dump schema. Per-CPU metrics are flattened to
// the skew extremes (min/max CPI across CPUs) so the row width stays
// constant regardless of CPU count; the full per-CPU detail lives in the
// JSON form (the recorder's session JSONL).
var csvHeader = []string{
	"t_ms", "window_sec",
	"messages", "msgs_per_sec", "bytes_in", "shed",
	"latency_p50_us", "latency_p99_us",
	"cpi", "cache_mpi_pct", "br_mpr_pct", "derived_source",
	"cpus", "cpu_cpi_min", "cpu_cpi_max", "gomaxprocs",
	"goroutines", "gc_cpu_pct", "sched_lat_p99_us",
	"upstream_idle_conns",
}

// csvRecord flattens one sample into the csvHeader column order.
func csvRecord(s Sample) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	cpiMin, cpiMax := cpuCPIBounds(s.CPUs)
	return []string{
		strconv.FormatInt(s.TMS, 10), f(s.WindowSec),
		u(s.Messages), f(s.MsgsPerSec), u(s.BytesIn), u(s.Shed),
		u(s.LatencyP50US), u(s.LatencyP99US),
		f(s.CPI), f(s.CacheMPI), f(s.BrMPR), s.DerivedSource,
		strconv.Itoa(len(s.CPUs)), f(cpiMin), f(cpiMax), strconv.Itoa(s.GOMAXPROCS),
		strconv.Itoa(s.Goroutines), f(s.GCCPUPct), f(s.SchedLatP99US),
		strconv.Itoa(s.UpstreamIdle),
	}
}

func cpuCPIBounds(cs []CPUSample) (min, max float64) {
	for i, c := range cs {
		if i == 0 || c.CPI < min {
			min = c.CPI
		}
		if i == 0 || c.CPI > max {
			max = c.CPI
		}
	}
	return min, max
}

// Appender writes the session CSV schema incrementally: the header goes
// out exactly once (suppressed when the writer was handed an already-
// populated file), then each Append flushes its rows through to the
// underlying writer before returning — the crash-safety contract the
// campaign recorder relies on: whatever Append has returned from is on
// disk, whatever comes later is a clean appended row, never a torn
// rewrite.
//
// An appender made with leading column names writes them before the
// schema's own, and each AppendRow brings their values: the recorder's
// session.csv is this schema behind phase, node, role and rel_ms, and
// ReadCSV, which locates columns by name, reads it like the plain one.
type Appender struct {
	cw        *csv.Writer
	lead      []string
	headerDue bool
	rows      int
}

// NewAppender wraps w. writeHeader=false resumes an existing artifact
// (the file already carries a header from a previous run).
func NewAppender(w io.Writer, writeHeader bool, lead ...string) *Appender {
	return &Appender{cw: csv.NewWriter(w), lead: lead, headerDue: writeHeader}
}

// Append writes the samples and flushes. Safe to call with no samples
// (it still emits a due header, making even an idle session's artifact
// well-formed).
func (a *Appender) Append(samples []Sample) error {
	for _, s := range samples {
		a.row(s, nil)
	}
	return a.flush()
}

// AppendRow writes one sample behind its leading column values (one per
// leading name the appender was made with) and flushes.
func (a *Appender) AppendRow(s Sample, lead ...string) error {
	a.row(s, lead)
	return a.flush()
}

// row buffers one record behind a due header. csv.Writer keeps a write
// error until flush reads it back.
func (a *Appender) row(s Sample, lead []string) {
	a.flushHeader()
	a.cw.Write(slices.Concat(lead, csvRecord(s)))
	a.rows++
}

func (a *Appender) flushHeader() {
	if a.headerDue {
		a.cw.Write(slices.Concat(a.lead, csvHeader))
		a.headerDue = false
	}
}

func (a *Appender) flush() error {
	a.flushHeader()
	a.cw.Flush()
	if err := a.cw.Error(); err != nil {
		return fmt.Errorf("session: csv append: %w", err)
	}
	return nil
}

// Rows reports how many sample rows this appender has written.
func (a *Appender) Rows() int { return a.rows }
