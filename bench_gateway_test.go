package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// benchGateway measures the live gateway end to end over loopback: one
// keep-alive connection posting AONBench 5 KB order documents, full
// socket/framing/pipeline/response round trip per iteration. SetBytes is
// the request wire size, so ns/op and MB/s are directly comparable to
// the simulated per-message costs.
func benchGateway(b *testing.B, uc workload.UseCase) {
	benchGatewayCfg(b, uc, gateway.Config{UseCase: uc})
}

func benchGatewayCfg(b *testing.B, uc workload.UseCase, cfg gateway.Config) {
	srv, err := gateway.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cl, err := gateway.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	// A small pool of distinct messages keeps content varied (both CBR
	// routes, realistic branch behavior) without generation on the path.
	const pool = 16
	reqs := make([][]byte, pool)
	for i := range reqs {
		reqs[i] = workload.HTTPRequest(i, uc)
	}
	b.SetBytes(int64(len(reqs[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Do(reqs[i%pool], 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != 200 {
			b.Fatalf("status %d", resp.Status)
		}
	}
}

func BenchmarkGatewayFR(b *testing.B)  { benchGateway(b, workload.FR) }
func BenchmarkGatewayCBR(b *testing.B) { benchGateway(b, workload.CBR) }
func BenchmarkGatewaySV(b *testing.B)  { benchGateway(b, workload.SV) }

// BenchmarkGatewayTracing is the tracing on/off pair on the CPU-heavy
// round trip: the same CBR message with Config.Trace off and on. Compare
// ns/op across the two sub-benchmarks; the traced side pays one clock
// read per stage boundary, lock-free histogram adds and the tail
// decision on every request.
func BenchmarkGatewayTracing(b *testing.B) {
	for _, c := range []struct {
		name  string
		trace bool
	}{{"off", false}, {"on", true}} {
		b.Run(c.name, func(b *testing.B) {
			benchGatewayCfg(b, workload.CBR, gateway.Config{
				UseCase: workload.CBR,
				Trace:   c.trace,
			})
		})
	}
}

// BenchmarkGatewayFRDTraced guards the tracing overhead: the same FR
// round trip as BenchmarkGatewayFR with Config.Trace on, so every
// request acquires a pooled recorder, stamps real spans around every
// stage, folds them into the stage histograms, and runs the
// tail-sampling decision (default 1-in-64 probabilistic keep). The
// acceptance bar is ns/op within ~3% of BenchmarkGatewayFR — the
// recorder is pooled and span stamping is a handful of time.Now calls,
// so the delta must stay in the noise of a loopback round trip.
// BenchmarkGatewayFR itself must not move at all (allocs/op 4, gated by
// cmd/benchguard): the untraced path costs a nil check per stage
// boundary.
func BenchmarkGatewayFRDTraced(b *testing.B) {
	benchGatewayCfg(b, workload.FR, gateway.Config{
		UseCase: workload.FR,
		Trace:   true,
	})
}

// BenchmarkGatewayFRForwarded is BenchmarkGatewayFR with a real upstream
// hop: the gateway forwards every message to a loopback order backend
// over the keep-alive pool and relays the ack. The delta against
// BenchmarkGatewayFR is the forwarding overhead — the second network
// round trip the paper's end-to-end FR topology adds over in-place mode.
func BenchmarkGatewayFRForwarded(b *testing.B) {
	be, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: "order"})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	benchGatewayCfg(b, workload.FR, gateway.Config{
		UseCase:  workload.FR,
		Upstream: upstream.Config{Order: be.Addr().String()},
	})
}
