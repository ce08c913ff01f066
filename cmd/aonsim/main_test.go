package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/httpmsg"
	"repro/internal/hwcount"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/session"
	"repro/internal/workload"
)

// TestUnknownExperimentRefused: an unknown -exp exits 2, prints nothing
// on stdout and names every valid experiment. capacity, the deleted
// queueing-model experiment, is refused like any other unknown name.
func TestUnknownExperimentRefused(t *testing.T) {
	for _, exp := range []string{"bogus", "capacity"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-exp", exp}, &out, &errb); code != 2 {
			t.Fatalf("-exp %s: exit %d, want 2", exp, code)
		}
		if out.Len() != 0 {
			t.Fatalf("-exp %s: stdout not empty: %q", exp, out.String())
		}
		if !strings.Contains(errb.String(), "unknown -exp") {
			t.Errorf("-exp %s: refusal does not say unknown -exp: %q", exp, errb.String())
		}
		for _, name := range experiments {
			if !strings.Contains(errb.String(), name) {
				t.Errorf("-exp %s: refusal does not name %q: %q", exp, name, errb.String())
			}
		}
	}
}

// TestFailedShapeChecksExitOne: an experiment that prints shape checks
// exits 1 when one fails, -exp all and the single experiments alike.
// Four measured messages are far too few for the paper's shapes to hold, so some
// checks fail in each.
func TestFailedShapeChecksExitOne(t *testing.T) {
	small := []string{"-msgs", "4", "-warmup", "1", "-netperf-ms", "0.2"}
	for _, exp := range []string{"all", "fig3", "table6", "fig2"} {
		t.Run(exp, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(append([]string{"-exp", exp}, small...), &out, &errb)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr %q", code, errb.String())
			}
			if !strings.Contains(out.String(), "[FAIL]") {
				t.Fatalf("no failed shape check printed:\n%s", out.String())
			}
			if exp == "all" && (!strings.Contains(out.String(), "shape checks failed: ") || strings.Contains(out.String(), "shape checks failed: 0\n")) {
				t.Fatalf("no failed shape checks reported:\n%s", out.String())
			}
		})
	}
}

// TestAllPlanIsUnionOfBlocks: -exp all runs the union of its blocks'
// cells, each once: the paper's grid, the extensions and the ablations
// come to 10 netperf, 31 XML-server and 4 ablated cells.
func TestAllPlanIsUnionOfBlocks(t *testing.T) {
	union := map[harness.Cell]bool{}
	for _, b := range blocks {
		for _, c := range plan(b) {
			union[c] = true
		}
	}
	kinds := map[string]int{}
	for _, c := range plan("all") {
		if !union[c] {
			t.Errorf("all lists %+v twice, or no block does", c)
		}
		delete(union, c)
		switch {
		case c.Machine != (machine.Options{}):
			kinds["ablated"]++
		case c.Netperf:
			kinds["netperf"]++
		default:
			kinds["XML-server"]++
		}
	}
	if len(union) > 0 {
		t.Errorf("all lacks %d of its blocks' cells: %+v", len(union), union)
	}
	if want := map[string]int{"netperf": 10, "XML-server": 31, "ablated": 4}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("all runs %v cells, want %v", kinds, want)
	}
}

// TestEveryBlockIsInAll: each single experiment's stdout is one
// contiguous block of -exp all's, byte for byte, at the same sizing.
func TestEveryBlockIsInAll(t *testing.T) {
	small := []string{"-msgs", "4", "-warmup", "1", "-netperf-ms", "0.2"}
	var all, errb bytes.Buffer
	run(append([]string{"-exp", "all"}, small...), &all, &errb)
	for _, b := range blocks {
		var out bytes.Buffer
		errb.Reset()
		run(append([]string{"-exp", b}, small...), &out, &errb)
		if out.Len() == 0 || !strings.Contains(all.String(), out.String()) {
			t.Errorf("-exp %s stdout is not a block of -exp all's:\n%s", b, out.String())
		}
	}
}

// mixGolden is what the standalone XML kernel driver printed for 8
// messages before -exp mix replaced it; the instrumented kernels' counts
// and verdicts must not move.
const mixGolden = `processed 8 AONBench messages (5120 bytes each)
  CBR "//quantity/text()" matched: 4/8
  SV schema-valid: 8/8
  parse        instr=  216048 loads=  12872 stores=  20062 branches=  14148 (6.5% branches, 62.7% taken)
  xpath        instr=   69520 loads=  13899 stores=      0 branches=   5970 (8.6% branches, 25.0% taken)
  validate     instr=   85279 loads=   2127 stores=      0 branches=   5366 (6.3% branches, 76.4% taken)
`

func TestMixGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "mix", "-msgs", "8"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if out.String() != mixGolden {
		t.Fatalf("mix output moved:\n got:\n%s\nwant:\n%s", out.String(), mixGolden)
	}
}

func TestMixSmall(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "mix", "-msgs", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"processed 2 AONBench messages", "parse", "xpath", "validate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("mix output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestUtilTable: one row per use case and logical CPU, a column per
// configuration, and "-" where a configuration has no such CPU. The
// labels do not depend on sizing, so the grid runs at the smallest one.
func TestUtilTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "util", "-msgs", "4", "-warmup", "1", "-netperf-ms", "0.2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, id := range machine.AllConfigs {
		if !strings.Contains(s, string(id)) {
			t.Errorf("util table lacks config %s", id)
		}
	}
	for _, uc := range workload.AllUseCases {
		for _, row := range []string{uc.String() + " cpu0", uc.String() + " cpu1"} {
			if !strings.Contains(s, row) {
				t.Errorf("util table lacks row %q", row)
			}
		}
	}
	if strings.Contains(s, "cpu2") {
		t.Errorf("util table has a third CPU row on two-CPU configurations:\n%s", s)
	}
}

// TestLiveWritesLoadableCalibration runs -exp live in whatever counters
// mode the host grants and in the forced runtime-only fallback. The
// calibration is the printed table: one row per FR/CBR/SV that parses
// back into a positive simulated and live CPI, each window sourced "hw"
// or "model" ("model" when forced), and nothing is written to the
// working directory.
func TestLiveWritesLoadableCalibration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		force bool
	}{{"host-mode", false}, {"forced-runtime-only", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.force {
				t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
			}
			wd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			defer os.Chdir(wd)
			var out, errb bytes.Buffer
			if code := run([]string{"-exp", "live", "-msgs", "20", "-warmup", "10", "-live-duration", "300ms"}, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			rows := map[string][]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(strings.ReplaceAll(line, "|", " "))
				if len(f) == 11 {
					rows[f[0]] = f
				}
			}
			for _, uc := range workload.AllUseCases {
				f := rows[uc.String()]
				if f == nil {
					t.Fatalf("no %s row:\n%s", uc, out.String())
				}
				if src := f[10]; (tc.force && src != "model") || (src != "model" && src != "hw") {
					t.Errorf("%s: live source %q, want model (forced %v) or hw", uc, src, tc.force)
				}
				for _, col := range []int{2, 3} { // sim-cpi, live-cpi
					if v, err := strconv.ParseFloat(f[col], 64); err != nil || v <= 0 {
						t.Errorf("%s: column %d = %q, want a positive CPI", uc, col, f[col])
					}
				}
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Errorf("-exp live wrote %v (%v)", ents, err)
			}
		})
	}
}

// gatewayWindow is the gateway node's window in a live phase's result.
func gatewayWindow(t *testing.T, res *campaign.Result) campaign.NodeWindow {
	t.Helper()
	if len(res.Phases) != 1 {
		t.Fatalf("%d phases, want 1", len(res.Phases))
	}
	for _, n := range res.Phases[0].Nodes {
		if n.Node == "gateway/gw0" {
			return n
		}
	}
	t.Fatalf("no gateway/gw0 window in %+v", res.Phases[0].Nodes)
	return campaign.NodeWindow{}
}

// checkRowIsWindow fails unless r carries the phase's gateway window
// and its row: CPI, cache-MPI, BrMPR and their source from the window,
// the recorder's rows as its sample count, ok/s and p50 from the row.
func checkRowIsWindow(t *testing.T, uc string, r liveRow, res *campaign.Result) {
	t.Helper()
	w, p := gatewayWindow(t, res), res.Phases[0]
	if r.liveCPI != w.CPI || r.liveMPI != w.CacheMPI || r.liveBrMPR != w.BrMPR || r.liveSource != w.DerivedSource {
		t.Errorf("%s: row cpi %v mpi %v brmpr %v (%s), gateway window cpi %v mpi %v brmpr %v (%s)",
			uc, r.liveCPI, r.liveMPI, r.liveBrMPR, r.liveSource, w.CPI, w.CacheMPI, w.BrMPR, w.DerivedSource)
	}
	if r.samples != res.Samples || r.samples < 2 {
		t.Errorf("%s: row samples %d, recorder rows %d; want equal and >= 2", uc, r.samples, res.Samples)
	}
	if r.okPerSec != p.OKPerSec || r.p50US != float64(p.LatencyP50US) || p.OK == 0 {
		t.Errorf("%s: row %v msgs/s p50 %vus, phase row %v ok/s p50 %dus (%d ok)",
			uc, r.okPerSec, r.p50US, p.OKPerSec, p.LatencyP50US, p.OK)
	}
}

// TestLiveEntryIsPhaseWindow: each use case's -exp live row is the
// gateway's window over its live phase in the same run — against the
// in-process gateway in whatever counters mode the host grants, and
// against a scripted gateway whose hardware counts grow unevenly between
// reads, where the mean of the recorder's row windows differs from the
// phase window, so a row averaged over the recorder's rows fails.
func TestLiveEntryIsPhaseWindow(t *testing.T) {
	sim := counters.Metrics{CPI: 1, L2MPI: 1, BrMPR: 1}
	for _, uc := range workload.AllUseCases {
		srv, err := gateway.New(gateway.Config{UseCase: uc, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		res, err := livePhase(srv.Addr().String(), uc, 300*time.Millisecond)
		srv.Shutdown(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkRowIsWindow(t, uc.String(), newLiveRow(sim, res), res)
	}

	fake := startScriptedGateway(t)
	res, err := livePhase(fake.addr, workload.CBR, 350*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r := newLiveRow(sim, res)
	checkRowIsWindow(t, "scripted", r, res)
	// The recorder read the gateway once per row after the pre-flight
	// read; a row's window is the step from the read before it.
	fake.mu.Lock()
	served := fake.served
	fake.mu.Unlock()
	if len(served) < 1+res.Samples || res.Samples < 3 {
		t.Fatalf("%d reads served for %d rows, want a pre-flight read and >= 3 rows", len(served), res.Samples)
	}
	rows := served[1 : 1+res.Samples]
	var win session.Windower
	var mean float64
	for _, r := range rows {
		mean += win.Window("gw", r.Sample()).CPI
	}
	mean = (mean - rows[0].Sample().CPI) / float64(len(rows)-1) // the first row primes: no window
	if r.liveSource != "hw" || mean == r.liveCPI {
		t.Fatalf("scripted: row cpi %v (%s), mean of row windows %v; want hw and different", r.liveCPI, r.liveSource, mean)
	}
}

// scriptedGateway answers any POST as a forwarding gateway would (200,
// X-AON-Outcome: forwarded) on keep-alive connections, and each GET
// /stats with the next snapshot of a hardware-sourced series whose
// counts grow unevenly, keeping every snapshot it served.
type scriptedGateway struct {
	addr string

	mu     sync.Mutex
	counts hwcount.Counts
	served []gateway.Snapshot
}

func startScriptedGateway(t *testing.T) *scriptedGateway {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	g := &scriptedGateway{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go g.serve(c)
		}
	}()
	return g
}

func (g *scriptedGateway) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	ok := httpmsg.FormatResponse(&httpmsg.Response{
		Status:  200,
		Headers: []httpmsg.Header{{Name: "X-AON-Outcome", Value: "forwarded"}},
	})
	for {
		raw, err := httpmsg.ReadRequest(br, 1<<20, nil)
		if err != nil {
			return
		}
		var req httpmsg.Request
		if httpmsg.ParseRequestInto(raw, &req) != nil {
			return
		}
		resp := ok
		if req.Target == "/stats" {
			resp = httpmsg.JSONResponse(200, g.next())
		}
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}

// next scripts the k-th /stats read: cycles and cache misses grow by
// amounts that cycle with k, so no two consecutive windows share a CPI.
func (g *scriptedGateway) next() gateway.Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := uint64(len(g.served))
	g.counts[hwcount.Cycles] += 3000 + 2500*(k%3)
	g.counts[hwcount.Instructions] += 2000 + 300*(k%2)
	g.counts[hwcount.CacheRefs] += 50 + k
	g.counts[hwcount.CacheMisses] += 5 + k%4
	g.counts[hwcount.Branches] += 400
	g.counts[hwcount.BranchMisses] += 3 + k%5
	snap := gateway.Snapshot{
		UptimeSec: 0.05 * float64(k+1),
		Messages:  40 * k,
		Workers:   1,
		Counters: &gateway.CountersSnapshot{Mode: "hw", Events: g.counts.EventsMap(),
			Derived: hwcount.Derive(g.counts), DerivedSource: "hw"},
	}
	g.served = append(g.served, snap)
	return snap
}
