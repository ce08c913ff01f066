// Command aonload is the closed-loop client driver for the live AON
// gateway: N concurrent keep-alive connections POSTing AONBench order
// documents, each sending its next request when the previous reply is
// in, reporting msgs/s, Mbps, latency percentiles, and routing
// outcomes as a final JSON report — one command per side makes a run.
//
// Usage:
//
//	aonload -addr localhost:8080 -usecase CBR -conns 16 -duration 10s
//	aonload -usecase SV -n 5000 -size 5120 -invalid-every 3
//
// aonload makes single runs only. A scaling study — the paper's
// one-unit→two-unit question, one run per GOMAXPROCS width — is a
// campaign of constant phases that differ in gomaxprocs, run by cmd/aoncamp
// against its in-process gateway (-selfgate; EXPERIMENTS.md "Live gateway
// scaling sweep").
//
// Against a tracing gateway (aongate -trace), -trace-client N originates
// a distributed trace on every Nth request per connection: an
// X-AON-Trace header carries a client-minted trace ID, the gateway
// adopts it, and the report JSON gains a client_spans array — the
// client's own view of each traced request, which cmd/aontrace (-load)
// joins with the gateway and backend spans into full cross-node traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "gateway address")
	ucName := flag.String("usecase", "FR", "use case: FR, CBR, SV, DPI, AUTH, XJ")
	conns := flag.Int("conns", 8, "concurrent keep-alive connections")
	msgs := flag.Int("n", 0, "total messages (0 = run for -duration)")
	duration := flag.Duration("duration", 0, "run length (0 = send -n messages; both 0 = 1000 messages)")
	size := flag.Int("size", workload.MessageBytes, "approximate POST body bytes")
	invalidEvery := flag.Int("invalid-every", 0, "make every Nth message schema-invalid (0 = never)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	seed := flag.Uint64("seed", 0, "message-generator seed (0 = legacy stream); same seed replays identical traffic")
	outPath := flag.String("out", "", "also write the final JSON report to this file")
	traceClient := flag.Int("trace-client", 0, "originate a distributed trace every Nth request per connection via X-AON-Trace; traced requests land in the report's client_spans (0 = off)")
	traceNode := flag.String("trace-node", "", "node name stamped on client spans (default client)")
	flag.Parse()

	uc, err := workload.ParseUseCase(*ucName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aonload:", err)
		os.Exit(2)
	}
	if *traceClient < 0 {
		fmt.Fprintf(os.Stderr, "aonload: -trace-client must be >= 0, got %d\n", *traceClient)
		os.Exit(2)
	}
	cfg := gateway.LoadConfig{
		Addr:         *addr,
		UseCase:      uc,
		Conns:        *conns,
		Messages:     *msgs,
		Duration:     *duration,
		Size:         *size,
		InvalidEvery: *invalidEvery,
		Timeout:      *timeout,
		Seed:         *seed,
		TraceEvery:   *traceClient,
		TraceNode:    *traceNode,
	}

	rep, err := RunAndReport(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aonload:", err)
		os.Exit(1)
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(b))
	writeOut(*outPath, b)
}

// writeOut mirrors the stdout report into -out when set, so a caller
// that captures logs still gets a clean machine-readable artifact.
func writeOut(path string, b []byte) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "aonload: -out:", err)
		os.Exit(1)
	}
}

// RunAndReport runs one load generation pass and summarizes to stderr.
func RunAndReport(cfg gateway.LoadConfig) (gateway.Report, error) {
	rep, err := gateway.RunLoad(cfg)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(os.Stderr,
		"aonload: %s  %d conns  %.0f msgs/s  %.1f Mbps  p50=%dus p99=%dus  ok=%d shed=%d err=%d\n",
		rep.UseCase, rep.Conns, rep.MsgsPerSec, rep.Mbps,
		rep.Latency.P50US, rep.Latency.P99US, rep.OK, rep.Shed, rep.HTTPErrors+rep.NetErrors)
	if n := len(rep.ClientSpans); n > 0 {
		fmt.Fprintf(os.Stderr, "aonload: originated %d distributed traces (client_spans in the report)\n", n)
	}
	return rep, nil
}
