// Command aontrace assembles distributed traces from every vantage
// point of an AON deployment and renders a critical-path report: which
// stage — client, gateway read/queue/parse/process/forward/write, or
// backend serve — owns the latency of the requests the tail samplers
// kept (shed, errored, idle-reaped, slow, plus a 1-in-N sample of the
// ordinary fast majority).
//
// Spans join purely by trace ID, never by comparing clocks across
// nodes, so gateway and backend may disagree on wall time and the
// report stays correct: per-span durations are node-local monotonic
// measurements, and self-time is a span's duration minus its direct
// children's.
//
// Usage:
//
//	aontrace -addrs localhost:8080,localhost:9081      # live GET /traces
//	aontrace -in fleet-out/traces.jsonl                # aonfleet artifact
//	aontrace -in gw.jsonl,be.jsonl -load report.json   # mix files + aonload client spans
//	aontrace -addrs localhost:8080 -top 5 -rank 20     # more exemplars, deeper ranking
//
// -addrs polls each node's GET /traces (aongate -trace gateways and
// aonback backends serve the same shape); -in reads span-per-line or
// trace-per-line JSONL (fleet traces.jsonl, or /traces output piped
// through jq); -load reads aonload -out report JSON and contributes its
// client_spans. All sources are pooled and deduplicated before
// assembly. Exits 1 when no spans were found anywhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
)

func main() {
	addrs := flag.String("addrs", "", "comma-separated node addresses to poll for GET /traces (gateways and backends)")
	in := flag.String("in", "", "comma-separated span JSONL paths (aonfleet traces.jsonl, or raw span-per-line files)")
	load := flag.String("load", "", "comma-separated aonload report JSON paths; their client_spans join the pool")
	top := flag.Int("top", 0, "slowest traces rendered as span trees (0 = default 3)")
	rank := flag.Int("rank", 0, "spans listed in the by-self-time ranking (0 = default 10)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-node timeout for -addrs polls")
	flag.Parse()

	if *addrs == "" && *in == "" && *load == "" {
		fmt.Fprintln(os.Stderr, "aontrace: nothing to read — pass -addrs, -in, or -load (see -h)")
		os.Exit(2)
	}

	var spans []dtrace.Span
	failed := 0
	for _, path := range splitList(*in) {
		got, err := readSpanFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aontrace:", err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "aontrace: %s: %d spans\n", path, len(got))
		spans = append(spans, got...)
	}
	for _, path := range splitList(*load) {
		got, err := readLoadReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aontrace:", err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "aontrace: %s: %d client spans\n", path, len(got))
		spans = append(spans, got...)
	}
	for _, addr := range splitList(*addrs) {
		got, node, err := fetchTraces(addr, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aontrace: %s: %v\n", addr, err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "aontrace: %s (%s): %d spans\n", addr, node, len(got))
		spans = append(spans, got...)
	}

	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "aontrace: no spans found")
		os.Exit(1)
	}
	traces := dtrace.Assemble(spans)
	dtrace.FormatReport(os.Stdout, traces, dtrace.ReportOptions{
		TopTraces: *top,
		RankSpans: *rank,
	})
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "aontrace: %d source(s) failed\n", failed)
		os.Exit(1)
	}
}

// splitList turns a comma-separated flag into trimmed non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// readSpanFile loads one JSONL file of spans (bare Span lines or
// whole-Trace lines — both shapes the fleet and /traces emit).
func readSpanFile(path string) ([]dtrace.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := dtrace.ReadSpansJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// readLoadReport pulls the client_spans array out of an aonload -out
// report.
func readLoadReport(path string) ([]dtrace.Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		ClientSpans []dtrace.Span `json:"client_spans"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep.ClientSpans, nil
}

// fetchTraces polls one node's GET /traces.
func fetchTraces(addr string, timeout time.Duration) ([]dtrace.Span, string, error) {
	var tr dtrace.TracesResponse
	if err := gateway.GetJSON(addr, "/traces", timeout, &tr); err != nil {
		return nil, "", err
	}
	var spans []dtrace.Span
	for _, t := range tr.Traces {
		spans = append(spans, t.Spans...)
	}
	return spans, tr.Node, nil
}
