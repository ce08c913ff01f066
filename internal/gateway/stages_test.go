package gateway

import (
	"testing"

	"repro/internal/workload"
)

// TestStageTracing exercises the stage histograms fed from the traced
// spans: the /stats stages section must carry per-use-case
// read/parse/process/write populations, and the per-use-case
// latency histograms must split accordingly.
func TestStageTracing(t *testing.T) {
	srv := startServer(t, Config{UseCase: workload.CBR, Trace: true})
	addr := srv.Addr().String()
	if rep := drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 2, 40); rep.OK != 40 {
		t.Fatalf("CBR: ok=%d of 40 (%+v)", rep.OK, rep)
	}
	if rep := drive(LoadConfig{Addr: addr, UseCase: workload.SV}, 2, 30); rep.OK != 30 {
		t.Fatalf("SV: ok=%d of 30 (%+v)", rep.OK, rep)
	}

	waitTraced(t, srv, 70)
	snap := srv.Snapshot()
	if snap.Stages == nil {
		t.Fatal("no stages section with Trace on")
	}
	for _, uc := range []string{"CBR", "SV"} {
		st, ok := snap.Stages[uc]
		if !ok {
			t.Fatalf("stages missing %s: %v", uc, snap.Stages)
		}
		for _, name := range []string{"read", "parse", "process", "write"} {
			h, ok := st[name]
			if !ok || h.Count == 0 {
				t.Fatalf("%s stage %q empty: %+v", uc, name, st)
			}
		}
		if _, ok := st["forward"]; ok {
			t.Fatalf("%s traced a forward stage with no backends", uc)
		}
		lh, ok := snap.LatencyByUseCase[uc]
		if !ok || lh.Count == 0 {
			t.Fatalf("latency_by_usecase missing %s: %+v", uc, snap.LatencyByUseCase)
		}
	}
	if snap.LatencyByUseCase["CBR"].Count != 40 || snap.LatencyByUseCase["SV"].Count != 30 {
		t.Fatalf("per-use-case latency counts: %+v", snap.LatencyByUseCase)
	}
}

// TestTracingOffByDefault keeps the trace opt-in and the sampler honest:
// without Trace there is no stages section.
func TestTracingOffByDefault(t *testing.T) {
	srv := startServer(t, Config{})
	if rep := drive(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR}, 1, 10); rep.OK != 10 {
		t.Fatalf("ok=%d of 10 (%+v)", rep.OK, rep)
	}
	if snap := srv.Snapshot(); snap.Stages != nil {
		t.Fatalf("stages section present without Trace: %+v", snap.Stages)
	}
}
