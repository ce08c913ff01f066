// Command aoncamp runs a scenario campaign against a live AON gateway:
// a JSON spec describing time-phased traffic shapes (constant, ramp,
// diurnal, flash crowd, slow-loris) and scripted backend fault storms,
// executed phase by phase while the gateway's /stats surface is sampled
// into a phase-tagged session timeline. The output is a per-phase
// Figure-5/6-style report — offered vs delivered load, latency
// percentiles, stage windows, capacity model-error columns — plus
// crash-safe JSONL/CSV artifacts the stock session readers parse.
//
// Usage:
//
//	aoncamp -spec campaign.json -addr localhost:8080
//	aoncamp -spec campaign.json -selfgate -selfback 2 -out artifacts/
//	aoncamp -spec campaign.json -selfgate -idle-timeout 150ms   # slow-loris demo
//
// -selfgate stands the gateway up in-process on loopback (like
// `aonload -sweep` does), so one command runs a whole campaign; with
// -selfback N it also self-hosts N fault-injectable backends, rewiring
// the spec's backends list to them (first = order route, second = error
// route). Fault steps in the spec then land on live POST /fault
// endpoints.
//
// Artifacts land in -out: session.jsonl + session.csv (written by the
// runner, flushed per row), campaign-report.txt (the formatted report),
// campaign-result.json (the full machine-readable result).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/upstream"
)

func main() {
	specPath := flag.String("spec", "", "campaign spec JSON file (required)")
	addr := flag.String("addr", "", "gateway address (overrides the spec's addr)")
	out := flag.String("out", "aon-campaign", "artifact directory (session JSONL/CSV, report, result JSON)")
	seed := flag.Uint64("seed", 0, "override the spec's generator seed (0 = keep the spec's)")
	selfgate := flag.Bool("selfgate", false, "self-host an in-process gateway on loopback")
	idle := flag.Duration("idle-timeout", 2*time.Second, "selfgate: client idle timeout (slow-loris phases shed when their trickle interval exceeds this)")
	selfback := flag.Int("selfback", 0, "self-host N loopback backends and point the spec's backends list at them")
	respSize := flag.Int("resp-size", 128, "self-hosted backend response body bytes")
	backDelay := flag.Duration("back-delay", 0, "self-hosted backend service delay per message")
	printReport := flag.Bool("print-report", true, "print the formatted report to stderr")
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "aoncamp: -spec is required")
		os.Exit(2)
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aoncamp:", err)
		os.Exit(2)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	// Self-hosted backends: replace the spec's backend list so fault
	// steps hit live /fault endpoints, and (with -selfgate) wire them as
	// the gateway's order/error routes.
	if *selfback > 0 {
		var addrs []string
		for i := 0; i < *selfback; i++ {
			name := "order"
			if i == 1 {
				name = "error"
			} else if i > 1 {
				name = fmt.Sprintf("back-%d", i)
			}
			b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{
				Name: name, RespBytes: *respSize, Delay: *backDelay, Seed: spec.Seed + uint64(i),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "aoncamp: backend:", err)
				os.Exit(1)
			}
			defer b.Close()
			addrs = append(addrs, b.Addr().String())
			fmt.Fprintf(os.Stderr, "aoncamp: backend %s on %s (POST /fault live)\n", name, b.Addr())
		}
		spec.Backends = addrs
	}
	// Validation runs after the -selfback rewiring so fault steps are
	// checked against the backends that will actually serve them.
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "aoncamp:", err)
		os.Exit(2)
	}

	target := *addr
	if *selfgate {
		up := upstream.Config{}
		if len(spec.Backends) > 0 {
			up.Order = spec.Backends[0]
		}
		if len(spec.Backends) > 1 {
			up.Error = spec.Backends[1]
		}
		srv, err := gateway.New(gateway.Config{
			Trace:       true, // the report's stage and model columns read the traced stage histograms
			IdleTimeout: *idle,
			Upstream:    up,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aoncamp: gateway:", err)
			os.Exit(1)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			fmt.Fprintln(os.Stderr, "aoncamp: gateway:", err)
			os.Exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = srv.Addr().String()
		mode := "in-place"
		if up.Enabled() {
			mode = fmt.Sprintf("forwarding (order=%s error=%s)", up.Order, up.Error)
		}
		fmt.Fprintf(os.Stderr, "aoncamp: gateway on %s, GOMAXPROCS %d, idle timeout %v, %s\n",
			target, runtime.GOMAXPROCS(0), *idle, mode)
	}

	res, err := campaign.Run(spec, campaign.Options{
		Addr:   target,
		OutDir: *out,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aoncamp:", err)
		os.Exit(1)
	}

	report := campaign.FormatReport(res)
	resultJSON, _ := json.MarshalIndent(res, "", "  ")
	if *out != "" {
		writeArtifact(filepath.Join(*out, "campaign-report.txt"), []byte(report))
		writeArtifact(filepath.Join(*out, "campaign-result.json"), append(resultJSON, '\n'))
	}
	if *printReport {
		fmt.Fprint(os.Stderr, report)
	}
	fmt.Println(string(resultJSON))
}

func writeArtifact(path string, b []byte) {
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "aoncamp:", err)
		os.Exit(1)
	}
}
