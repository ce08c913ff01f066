package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"path/filepath"
	"reflect"
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
// exits 1 when one fails, -exp all and the single experiments alike;
// with -checks=false nothing is checked and the exit is 0. Four measured
// messages are far too few for the paper's shapes to hold, so some
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
	var out, errb bytes.Buffer
	if code := run(append([]string{"-exp", "fig2", "-checks=false"}, small...), &out, &errb); code != 0 {
		t.Fatalf("-checks=false: exit %d, want 0", code)
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
	small := []string{"-msgs", "20", "-warmup", "5", "-netperf-ms", "0.5"}
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
// configuration, and "-" where a configuration has no such CPU.
func TestUtilTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "util", "-msgs", "40", "-warmup", "10"}, &out, &errb); code != 0 {
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
// mode the host grants and in the forced runtime-only fallback: the
// artifact holds FR/CBR/SV entries, each a phase window over >= 2
// recorder rows with a positive CPI scale, and loads back into -exp fig3
// -calibration. Model-sourced sessions record identity scales.
func TestLiveWritesLoadableCalibration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		force bool
	}{{"host-mode", false}, {"forced-runtime-only", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.force {
				t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
			}
			path := filepath.Join(t.TempDir(), "cal.json")
			var out, errb bytes.Buffer
			args := []string{"-exp", "live", "-msgs", "20", "-warmup", "10", "-live-duration", "500ms", "-calibration-out", path}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			cal, err := harness.LoadCalibration(path)
			if err != nil {
				t.Fatal(err)
			}
			if cal.Config != string(machine.TwoCPm) || len(cal.Entries) != len(workload.AllUseCases) {
				t.Fatalf("artifact = %+v", cal)
			}
			for _, uc := range workload.AllUseCases {
				e, ok := cal.Entries[uc.String()]
				if !ok {
					t.Fatalf("no %s entry", uc)
				}
				if e.Samples < 2 || e.CPIScale <= 0 {
					t.Errorf("%s: %d rows, cpi scale %v; want >= 2 and > 0", uc, e.Samples, e.CPIScale)
				}
				if e.SimCPI <= 0 || e.LiveMsgsPerSec <= 0 {
					t.Errorf("%s: entry lacks a prediction or a live rate: %+v", uc, e)
				}
				if e.LiveSource == "model" && (e.CPIScale != 1 || e.MPIScale != 1 || e.BrMPRScale != 1) {
					t.Errorf("%s: model-sourced entry not identity: %+v", uc, e)
				}
				if tc.force && e.LiveSource != "model" {
					t.Errorf("%s: forced fallback entry sourced %q, want model", uc, e.LiveSource)
				}
			}
			if !strings.Contains(out.String(), "live source") {
				t.Errorf("live table missing:\n%s", out.String())
			}
			out.Reset()
			errb.Reset()
			if code := run([]string{"-exp", "fig3", "-msgs", "60", "-warmup", "20", "-calibration", path}, &out, &errb); code != 0 {
				t.Fatalf("fig3 with the artifact: exit %d: %s\n%s", code, errb.String(), out.String())
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

// checkEntryIsWindow fails unless e carries the phase's gateway window
// and its row: CPI, cache-MPI, BrMPR and their source from the window,
// the recorder's rows as its sample count, ok/s and p50 from the row.
func checkEntryIsWindow(t *testing.T, uc string, e harness.CalibrationEntry, res *campaign.Result) {
	t.Helper()
	w, p := gatewayWindow(t, res), res.Phases[0]
	if e.LiveCPI != w.CPI || e.LiveMPI != w.CacheMPI || e.LiveBrMPR != w.BrMPR || e.LiveSource != w.DerivedSource {
		t.Errorf("%s: entry cpi %v mpi %v brmpr %v (%s), gateway window cpi %v mpi %v brmpr %v (%s)",
			uc, e.LiveCPI, e.LiveMPI, e.LiveBrMPR, e.LiveSource, w.CPI, w.CacheMPI, w.BrMPR, w.DerivedSource)
	}
	if e.Samples != res.Samples || e.Samples < 2 {
		t.Errorf("%s: entry samples %d, recorder rows %d; want equal and >= 2", uc, e.Samples, res.Samples)
	}
	if e.LiveMsgsPerSec != p.OKPerSec || e.LiveP50US != float64(p.LatencyP50US) || p.OK == 0 {
		t.Errorf("%s: entry %v msgs/s p50 %vus, phase row %v ok/s p50 %dus (%d ok)",
			uc, e.LiveMsgsPerSec, e.LiveP50US, p.OKPerSec, p.LatencyP50US, p.OK)
	}
}

// TestLiveEntryIsPhaseWindow: each use case's calibration entry is the
// gateway's window over its live phase in the same run — against the
// in-process gateway in whatever counters mode the host grants, and
// against a scripted gateway whose hardware counts grow unevenly between
// reads, where the mean of the recorder's row windows differs from the
// phase window, so an entry averaged over the rows fails.
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
		checkEntryIsWindow(t, uc.String(), calibrationEntry(sim, res), res)
	}

	fake := startScriptedGateway(t)
	res, err := livePhase(fake.addr, workload.CBR, 350*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e := calibrationEntry(sim, res)
	checkEntryIsWindow(t, "scripted", e, res)
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
	if e.LiveSource != "hw" || mean == e.LiveCPI {
		t.Fatalf("scripted: entry cpi %v (%s), mean of row windows %v; want hw and different", e.LiveCPI, e.LiveSource, mean)
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
