package gateway

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// fetchJSON GETs target from the gateway and decodes the JSON body into v.
func fetchJSON(t *testing.T, addr, target string, v any) int {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: x\r\n\r\n", target)), 5*time.Second)
	if err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
	if resp.Status == 200 {
		if err := json.Unmarshal(resp.Body, v); err != nil {
			t.Fatalf("GET %s: body not JSON: %v\n%s", target, err, resp.Body)
		}
	}
	return resp.Status
}

// TestTimelineEndpoint is the sampling session's acceptance path, run in
// both operating modes: whatever the host grants (hw where perf exists,
// the runtime-only fallback elsewhere) and the env-forced fallback. The
// timeline's endpoint is /stats itself: a reader windows successive
// reads with a session.Windower, as aoncamp and aonfleet do, and must
// get >= 2 windows whose per-CPU derived blocks are populated and
// labeled with their source, plus the upstream idle gauge of a
// forwarding gateway.
func TestTimelineEndpoint(t *testing.T) {
	modes := []struct {
		name  string
		force bool
	}{{"host-mode", false}, {"forced-fallback", true}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			if m.force {
				t.Setenv(ForceRuntimeOnlyEnv, "1")
			} else if os.Getenv(ForceRuntimeOnlyEnv) != "" {
				t.Skipf("%s set in environment", ForceRuntimeOnlyEnv)
			}
			order := startBackend(t, upstream.BackendConfig{Name: "order"})
			errBE := startBackend(t, upstream.BackendConfig{Name: "error"})
			srv := startServer(t, Config{
				UseCase:  workload.CBR,
				Counters: true,
				Upstream: upstream.Config{Order: order.Addr().String(), Error: errBE.Addr().String()},
			})
			addr := srv.Addr().String()
			var w session.Windower
			read := func() session.Sample {
				var snap Snapshot
				if st := fetchJSON(t, addr, "/stats", &snap); st != 200 {
					t.Fatalf("GET /stats status %d", st)
				}
				return w.Window(addr, snap.Sample())
			}
			read() // primes the reader
			if rep := drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 2, 60); rep.OK != 60 {
				t.Fatalf("ok=%d of 60 (%+v)", rep.OK, rep)
			}
			var samples []session.Sample
			for i := 0; i < 3; i++ {
				time.Sleep(10 * time.Millisecond)
				samples = append(samples, read())
			}
			var sawMsgs, sawIdle bool
			for _, s := range samples {
				if s.WindowSec <= 0 {
					t.Fatalf("window_sec=%v, want > 0: %+v", s.WindowSec, s)
				}
				if s.DerivedSource == "" || s.CPI <= 0 {
					t.Fatalf("sample missing derived metrics: %+v", s)
				}
				if m.force && s.DerivedSource != "model" {
					t.Fatalf("forced fallback sample labeled %q, want model", s.DerivedSource)
				}
				// The model is a constant: even the first window carries it.
				if m.force && s.CacheMPI <= 0 {
					t.Fatalf("forced fallback sample with no model cache-MPI: %+v", s)
				}
				if len(s.CPUs) != runtime.NumCPU() {
					t.Fatalf("sample has %d CPU entries, want %d: %+v", len(s.CPUs), runtime.NumCPU(), s)
				}
				if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
					t.Fatalf("sample gomaxprocs %d, want %d", s.GOMAXPROCS, runtime.GOMAXPROCS(0))
				}
				if s.Goroutines <= 0 {
					t.Fatalf("sample without the runtime gauges: %+v", s)
				}
				for _, c := range s.CPUs {
					if c.DerivedSource == "" || c.CPI <= 0 {
						t.Fatalf("CPU entry missing derived metrics: %+v", c)
					}
					if m.force && c.DerivedSource != "model" {
						t.Fatalf("forced fallback CPU entry labeled %q, want model", c.DerivedSource)
					}
					if c.DerivedSource == "model" && c.CacheMPI <= 0 {
						t.Fatalf("model-sourced CPU entry with no cache-MPI: %+v", c)
					}
				}
				sawMsgs = sawMsgs || s.Messages > 0
				sawIdle = sawIdle || s.UpstreamIdle > 0
			}
			if !sawMsgs {
				t.Fatalf("no sample recorded message throughput: %+v", samples)
			}
			if !sawIdle {
				t.Fatalf("forwarding gateway's samples carry no upstream idle conns: %+v", samples)
			}
		})
	}
}

// TestTimelineDisabled404: the gateway runs no sampling session of its
// own, whatever it is configured with — /timeline is a 404 and /stats
// has no timeline section.
func TestTimelineDisabled404(t *testing.T) {
	srv := startServer(t, Config{Counters: true, Trace: true})
	var v map[string]any
	if st := fetchJSON(t, srv.Addr().String(), "/timeline", &v); st != 404 {
		t.Fatalf("status=%d, want 404", st)
	}
	if st := fetchJSON(t, srv.Addr().String(), "/stats", &v); st != 200 {
		t.Fatalf("GET /stats status %d", st)
	}
	if _, ok := v["timeline"]; ok {
		t.Fatalf("timeline section present in /stats: %v", v["timeline"])
	}
}
