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
//	aonload -sweep 1,2,4 -usecase SV -n 2000   # self-hosted scaling table
//	aonload -sweep 1,2 -usecase FR -selfback   # ... with real forwarding
//
// -sweep replays the paper's 1-unit→2-unit scaling question (Figures 5/6)
// on the live machine: for each width it sets GOMAXPROCS, starts an
// in-process gateway on loopback, drives it, and prints a scaling
// table. Like the paper's netperf loopback mode,
// client and server share the machine, so the curve shape — not the
// absolute msgs/s — is the comparable result.
//
// In sweep mode, -selfback stands up in-process order/error backends on
// loopback (or -order/-error point at running cmd/aonback instances), so
// the swept gateway forwards for real: the table gains the order
// backend's p50 round-trip latency.
//
// -counters adds the paper's counter columns to the sweep table: per-
// GOMAXPROCS CPI and BrMPR measured with perf_event_open (Tables 4/6
// next to the Figures 5/6 scaling curve) plus the GC CPU share. Where
// perf events are denied the sweep still completes, printing runtime-
// metrics-backed rows with model-predicted derived values and a one-line
// notice.
//
// The swept gateway traces every request (gateway Config.Trace), and a
// per-stage p50/p99 table (read/queue/parse/process/forward/write)
// prints after the scaling table — the live analogue of the paper's
// per-phase profile next to its scaling figures — followed by the
// capacity model seeded from those stage demands. -timeline runs a
// sampling session inside each swept gateway.
//
// Against a tracing gateway (aongate -trace), -trace-client N originates
// a distributed trace on every Nth request per connection: an
// X-AON-Trace header carries a client-minted trace ID, the gateway
// adopts it, and the report JSON gains a client_spans array — the
// client's own view of each traced request, which cmd/aontrace (-load)
// and cmd/aonfleet join with the gateway and backend spans into full
// cross-node traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/hwcount"
	"repro/internal/upstream"
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
	outPath := flag.String("out", "", "also write the final JSON report to this file (cmd/aonfleet reads it back)")
	sweep := flag.String("sweep", "", "comma-separated GOMAXPROCS widths for a self-hosted scaling run (e.g. 1,2,4)")
	order := flag.String("order", "", "sweep mode: order backend address for the swept gateway")
	errAddr := flag.String("error", "", "sweep mode: error backend address for the swept gateway")
	selfback := flag.Bool("selfback", false, "sweep mode: self-host order/error backends on loopback")
	respSize := flag.Int("resp-size", 128, "self-hosted backend response body bytes")
	hwCounters := flag.Bool("counters", false, "sweep mode: per-width CPI/BrMPR columns from perf_event_open (runtime-metrics fallback where denied)")
	timeline := flag.Bool("timeline", false, "sweep mode: run a sampling session per width (implies -counters)")
	sampleInterval := flag.Duration("sample-interval", 100*time.Millisecond, "sampling period for -timeline (must be positive)")
	targetP99 := flag.Duration("target-p99", 100*time.Millisecond, "sweep mode: p99 bound for the model table's admissible-load column")
	traceClient := flag.Int("trace-client", 0, "originate a distributed trace every Nth request per connection via X-AON-Trace; traced requests land in the report's client_spans (0 = off)")
	traceNode := flag.String("trace-node", "", "node name stamped on client spans (default client; aonfleet passes role/id)")
	flag.Parse()

	uc, err := workload.ParseUseCase(*ucName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aonload:", err)
		os.Exit(2)
	}
	if *sampleInterval <= 0 {
		fmt.Fprintf(os.Stderr, "aonload: -sample-interval must be positive, got %v\n", *sampleInterval)
		os.Exit(2)
	}
	if *traceClient < 0 {
		fmt.Fprintf(os.Stderr, "aonload: -trace-client must be >= 0, got %d\n", *traceClient)
		os.Exit(2)
	}
	if (*hwCounters || *timeline) && !hwcount.Supported() {
		fmt.Fprintln(os.Stderr, "aonload: -counters/-timeline need perf events, which this OS does not support")
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

	if *sweep != "" {
		procs, err := parseProcs(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aonload:", err)
			os.Exit(2)
		}
		up := upstream.Config{Order: *order, Error: *errAddr}
		if *selfback {
			for _, role := range []string{"order", "error"} {
				b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{
					Name: role, RespBytes: *respSize,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "aonload: backend:", err)
					os.Exit(1)
				}
				defer b.Close()
				if role == "order" {
					up.Order = b.Addr().String()
				} else {
					up.Error = b.Addr().String()
				}
			}
		}
		rows, err := gateway.RunSweep(procs, cfg, gateway.Config{
			UseCase:        uc,
			Upstream:       up,
			Counters:       *hwCounters,
			Timeline:       *timeline,
			SampleInterval: *sampleInterval,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aonload:", err)
			os.Exit(1)
		}
		mode := "in-place"
		if up.Enabled() {
			mode = fmt.Sprintf("forwarding (order=%s error=%s)", up.Order, up.Error)
		}
		fmt.Fprintf(os.Stderr, "aonload: %s scaling sweep, %d conns, %d-byte messages, %s\n",
			uc, cfg.Conns, cfg.Size, mode)
		if *hwCounters && len(rows) > 0 && rows[0].Server.Counters != nil {
			c := rows[0].Server.Counters
			if c.Mode == "runtime-only" {
				fmt.Fprintf(os.Stderr, "aonload: counters: %s\n", c.Notice)
			} else {
				fmt.Fprintf(os.Stderr, "aonload: counters: hardware mode (perf_event_open)\n")
			}
		}
		fmt.Fprint(os.Stderr, gateway.FormatSweepTable(rows))
		if st := gateway.FormatStageTable(rows); st != "" {
			fmt.Fprintf(os.Stderr, "\nper-stage latency (every request traced):\n%s", st)
		}
		if mt := gateway.FormatModelTable(rows, *targetP99); mt != "" {
			fmt.Fprintf(os.Stderr, "\ncapacity model vs measured (per load point):\n%s", mt)
		}
		b, _ := json.MarshalIndent(rows, "", "  ")
		fmt.Println(string(b))
		writeOut(*outPath, b)
		return
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

// writeOut mirrors the stdout report into -out when set, so callers
// that capture logs (cmd/aonfleet) still get a clean machine-readable
// artifact.
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

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sweep entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
