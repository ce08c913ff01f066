// Command aonback is the minimal order/error endpoint of the paper's
// end-to-end FR topology: the separate backend the AON device forwards
// to. Run one per endpoint (typically an "order" and an "error"
// instance), point cmd/aongate at them with -order/-error, and the
// gateway becomes a true forwarding proxy — on one machine over
// loopback, or across two machines for the paper's real netperf-style
// end-to-end setup.
//
// Usage:
//
//	aonback -addr :9081 -name order                 # order endpoint
//	aonback -addr :9082 -name error                 # error endpoint
//	aonback -addr :9081 -resp-size 2048 -delay 2ms  # heavier reverse path
//	curl http://localhost:9081/stats                # live counters JSON
//	curl http://localhost:9081/fault                # live fault state
//	curl -d '{"error_rate":0.2}' http://localhost:9081/fault  # script a fault
//
// -resp-size pads the JSON ack (reverse-path wire cost); -delay emulates
// backend service time. POST /fault scripts runtime fault storms —
// fail-next-N (drop the next N requests without responding: the
// connection closes, which exercises the gateway's 502 path), error-rate,
// latency-inflation, down-for-duration — which is how cmd/aoncamp drives
// scripted fault campaigns; -seed keys the deterministic error-rate
// draw. A request the one HTTP parser refuses gets 400 and Connection:
// close, as at the gateway. GET /stats serves the live counters as
// JSON — uptime_sec, messages, bytes_in and latency under the gateway's
// keys, the drop and injected-error totals inside the fault section —
// which is how cmd/aoncamp records backend nodes in a campaign's one
// cross-node session, decoded the same way as its gateways. A request that arrives with
// X-AON-Trace — aongate -trace forwards the header only for a request
// the client sampled — gets a serve span named by -trace-node, and every
// one is kept in a ring served on GET /traces, so each sampled trace has
// its backend leg. SIGINT/SIGTERM prints the same snapshot on stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (served only via -pprof)
	"os"
	"os/signal"
	"syscall"

	"repro/internal/upstream"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the command: it parses args, serves until stop closes, prints
// the final stats JSON on stdout and progress on stderr, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("aonback", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9081", "listen address")
	name := fs.String("name", "order", "endpoint role tag: order or error")
	respSize := fs.Int("resp-size", 128, "approximate response body bytes")
	delay := fs.Duration("delay", 0, "per-request service delay")
	seed := fs.Uint64("seed", 0, "seed for the deterministic error-rate fault draw")
	traceNode := fs.String("trace-node", "", "node name stamped on this backend's trace spans (default -name; aoncamp passes role/id)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "aonback: -pprof:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "aonback: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) // returns when the deferred Close shuts the listener
	}
	srv, err := upstream.StartBackend(*addr, upstream.BackendConfig{
		Name:      *name,
		RespBytes: *respSize,
		Delay:     *delay,
		Seed:      *seed,
		TraceNode: *traceNode,
	})
	if err != nil {
		fmt.Fprintln(stderr, "aonback:", err)
		return 1
	}
	fmt.Fprintf(stderr, "aonback: %s endpoint listening on %s (resp-size=%d delay=%s seed=%d), stats on GET /stats, fault control on POST /fault\n",
		*name, srv.Addr(), *respSize, *delay, *seed)

	<-stop
	srv.Close()
	b, err := json.MarshalIndent(srv.Stats(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "aonback: final stats:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
