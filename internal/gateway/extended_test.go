package gateway

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestExtendedUseCasesLive drives the DPI and XJ routes end to end on a
// live gateway: DPI must exercise both verdicts (clean messages forward,
// every DirtyEvery-th embeds a signature and routes to error), XJ must
// answer the translated JSON document, and both must appear in the
// per-use-case latency and stage surfaces.
func TestExtendedUseCasesLive(t *testing.T) {
	srv := startServer(t, Config{Trace: true})
	addr := srv.Addr().String()

	// DPI: the pool has 64 distinct messages, DirtyEvery=5 of which are
	// dirty, so both verdicts must appear and sum to OK.
	rep := drive(LoadConfig{Addr: addr, UseCase: workload.DPI}, 3, 120)
	if rep.OK != 120 {
		t.Fatalf("DPI: ok=%d, want 120 (%+v)", rep.OK, rep)
	}
	if rep.Forwarded == 0 || rep.RoutedError == 0 {
		t.Fatalf("DPI: forwarded=%d blocked=%d, want both non-zero", rep.Forwarded, rep.RoutedError)
	}
	if rep.Forwarded+rep.RoutedError != rep.OK {
		t.Fatalf("DPI: outcomes %d+%d != ok %d", rep.Forwarded, rep.RoutedError, rep.OK)
	}

	// XJ: every message translates; the response body is the translated
	// JSON document, not the routing-verdict stub.
	rep = drive(LoadConfig{Addr: addr, UseCase: workload.XJ}, 2, 60)
	if rep.OK != 60 || rep.Translated != 60 {
		t.Fatalf("XJ: ok=%d translated=%d, want 60/60 (%+v)", rep.OK, rep.Translated, rep)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(workload.HTTPRequest(3, workload.XJ), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Outcome != "translated" || resp.Route != "order" {
		t.Fatalf("XJ response: status=%d outcome=%q route=%q", resp.Status, resp.Outcome, resp.Route)
	}
	var doc map[string]any
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		t.Fatalf("XJ body is not JSON: %v\n%.200s", err, resp.Body)
	}
	if _, ok := doc["soap:Envelope"]; !ok {
		t.Fatalf("XJ body missing translated envelope: %.200s", resp.Body)
	}

	// Both extensions surface in /stats: outcome counters, per-use-case
	// latency histograms, and stage traces.
	waitTraced(t, srv, 181)
	snap := srv.Snapshot()
	if snap.Translated != 61 {
		t.Fatalf("snapshot translated=%d, want 61", snap.Translated)
	}
	for _, uc := range []string{"DPI", "XJ"} {
		if _, ok := snap.LatencyByUseCase[uc]; !ok {
			t.Fatalf("latency_by_usecase missing %s: %v", uc, snap.LatencyByUseCase)
		}
		stages, ok := snap.Stages[uc]
		if !ok {
			t.Fatalf("stages missing %s", uc)
		}
		if stages["process"].Count == 0 {
			t.Fatalf("%s process stage untraced: %+v", uc, stages)
		}
	}
	if snap.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("snapshot workers=%d, want GOMAXPROCS %d", snap.Workers, runtime.GOMAXPROCS(0))
	}
}
