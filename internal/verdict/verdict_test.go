package verdict_test

import (
	"bytes"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/httpmsg"
	"repro/internal/perf/trace"
	"repro/internal/verdict"
	"repro/internal/wcrypto"
	"repro/internal/workload"
	"repro/internal/xmldom/xmltest"
)

// everyUseCase is the paper's three use cases and the three extensions.
var everyUseCase = append(slices.Clone(workload.AllUseCases), workload.ExtendedUseCases...)

// twin decides each request twice the ways its two callers do: live, as
// the gateway does (no meter), and metered, as a simulated worker does (a
// trace.Buffer, a body address and a DOM arena). Each side has its own
// rules, as the gateway and a simulated server each build theirs.
type twin struct {
	live, sim     *verdict.Rules
	meter         verdict.Meter
	buf           *trace.Buffer
	liveXJ, simXJ []byte
}

func newTwin(t testing.TB) *twin {
	live, err := verdict.New("", nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := verdict.New("", nil)
	if err != nil {
		t.Fatal(err)
	}
	arena := trace.NewArena(1<<30, 1<<24)
	sim.PlaceDPITable(arena.Base())
	buf := trace.NewBuffer(1 << 12)
	return &twin{live: live, sim: sim, buf: buf, meter: verdict.Meter{Em: buf, Body: 0x10000, Arena: arena}}
}

// decide runs uc on a copy of req down both paths and reports any
// disagreement: in the outcome, in the XJ translation, or a metered
// verdict that charged nothing. It returns the live outcome.
func (w *twin) decide(t testing.TB, uc workload.UseCase, req *httpmsg.Request) verdict.Outcome {
	t.Helper()
	lreq, sreq := *req, *req
	lreq.Headers, sreq.Headers = slices.Clone(req.Headers), slices.Clone(req.Headers)
	live := w.live.Decide(uc, &lreq, nil, &w.liveXJ)
	w.buf.Reset()
	sim := w.sim.Decide(uc, &sreq, &w.meter, &w.simXJ)
	if live != sim {
		t.Errorf("%v: live %v, metered %v for body %.60q", uc, live, sim, req.Body)
	}
	if sim != verdict.OutParseError && w.buf.Instr == 0 {
		t.Errorf("%v: metered %v charged no instructions", uc, sim)
	}
	if live == verdict.OutTranslated && sim == live {
		lcl, _ := lreq.Get("Content-Length")
		scl, _ := sreq.Get("Content-Length")
		if !bytes.Equal(lreq.Body, sreq.Body) || lcl != scl {
			t.Errorf("XJ: live %.40q (Content-Length %s), metered %.40q (%s)", lreq.Body, lcl, sreq.Body, scl)
		}
	}
	return live
}

// post is the request the load generators send for body under uc, with
// the X-AON-MAC value given (the body's own MAC when mac is "").
func post(uc workload.UseCase, body []byte, mac string) *httpmsg.Request {
	req := &httpmsg.Request{
		Method:  "POST",
		Target:  "http://aon-gw.example.com/service/" + uc.String(),
		Proto:   "HTTP/1.1",
		Headers: []httpmsg.Header{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}},
		Body:    body,
	}
	if uc == workload.AUTH {
		if mac == "" {
			sum := wcrypto.HMAC(workload.AuthKey, body, nil, 0)
			mac = hex.EncodeToString(sum[:])
		}
		req.Headers = append(req.Headers, httpmsg.Header{Name: "X-AON-MAC", Value: mac})
	}
	return req
}

func parse(t testing.TB, raw []byte) *httpmsg.Request {
	t.Helper()
	req, err := httpmsg.ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestLiveAndSimulatedVerdictsAgree: for the same request, the live path
// and the metered path a simulated worker runs send the message to the
// same place — intended endpoint, error endpoint, or refused as
// unprocessable — and XJ writes the same JSON. The two share Decide, so
// what differs is everything under it: a pooled zero-copy tree against
// ParseInstrumented's copies in a simulated arena, an early-exit scan
// against the full instrumented one, unmetered against metered xpath,
// xsd and HMAC, and separately built rules. Inputs: the load generators'
// own requests under seeds 1–3 (enough indices to hit both CBR routes, a
// DPI signature and a tampered MAC), their schema-invalid variants, and
// every document of the differential corpus — rejected and accepted — as
// a body; for AUTH also correct MACs written in upper-case hex, which
// both must accept (hex is case-insensitive; the live pipeline once
// compared strings).
func TestLiveAndSimulatedVerdictsAgree(t *testing.T) {
	w := newTwin(t)
	seen := map[string]int{}
	for _, uc := range everyUseCase {
		var reqs []*httpmsg.Request
		for seed := uint64(1); seed <= 3; seed++ {
			for i := 0; i < 2*workload.TamperEvery; i++ {
				reqs = append(reqs,
					parse(t, workload.HTTPRequestSeeded(i, uc, workload.MessageBytes, seed)),
					post(uc, workload.InvalidSOAPMessageSeeded(i, workload.MessageBytes, seed), ""))
			}
		}
		for _, doc := range xmltest.Corpus() {
			reqs = append(reqs, post(uc, doc, ""))
		}
		upper := map[int]bool{}
		if uc == workload.AUTH {
			for i := 0; i < 3; i++ {
				body := workload.SOAPMessageSeeded(i, workload.MessageBytes, 1)
				mac := wcrypto.HMAC(workload.AuthKey, body, nil, 0)
				upper[len(reqs)] = true
				reqs = append(reqs, post(uc, body, strings.ToUpper(hex.EncodeToString(mac[:]))))
			}
		}
		for i, req := range reqs {
			out := w.decide(t, uc, req)
			if upper[i] && !out.Intended() {
				t.Errorf("AUTH: upper-case MAC refused (%v)", out)
			}
			seen[uc.String()+" "+out.String()]++
		}
	}
	// The inputs must actually exercise every verdict a use case has.
	for _, want := range []string{
		"FR forwarded",
		"CBR match", "CBR error", "CBR parse-error",
		"SV valid", "SV error", "SV parse-error",
		"DPI forwarded", "DPI error",
		"AUTH forwarded", "AUTH error",
		"XJ translated", "XJ parse-error",
	} {
		if seen[want] == 0 {
			t.Errorf("no input produced %q (saw %v)", want, seen)
		}
	}
}

// FuzzLiveVsMeteredVerdict puts arbitrary bodies (and, for AUTH,
// arbitrary MAC headers; empty means the body's own MAC) through both
// paths for every use case.
func FuzzLiveVsMeteredVerdict(f *testing.F) {
	for _, doc := range xmltest.Corpus() {
		f.Add(doc, "")
	}
	f.Add(workload.SOAPMessage(0), "")
	f.Add(workload.SOAPMessage(1), "00")
	f.Add(workload.InvalidSOAPMessage(0), "")
	w := newTwin(f)
	f.Fuzz(func(t *testing.T, body []byte, mac string) {
		for _, uc := range everyUseCase {
			w.decide(t, uc, post(uc, body, mac))
		}
	})
}

// TestDecideFunctional checks the workload messages' verdicts on both
// paths: even CBR messages match and odd ones do not, an AONBench message
// is schema-valid, FR forwards and XJ translates.
func TestDecideFunctional(t *testing.T) {
	w := newTwin(t)
	for i := 0; i < 6; i++ {
		want := verdict.OutNoMatch
		if i%2 == 0 {
			want = verdict.OutMatch
		}
		if got := w.decide(t, workload.CBR, parse(t, workload.HTTPRequest(i, workload.CBR))); got != want {
			t.Errorf("CBR message %d: %v, want %v", i, got, want)
		}
	}
	for uc, want := range map[workload.UseCase]verdict.Outcome{
		workload.SV: verdict.OutValid,
		workload.FR: verdict.OutForwarded,
		workload.XJ: verdict.OutTranslated,
	} {
		if got := w.decide(t, uc, parse(t, workload.HTTPRequest(1, uc))); got != want {
			t.Errorf("%v: %v, want %v", uc, got, want)
		}
	}
}

// TestDecideDPI: on both paths a clean DPI message passes and every
// DirtyEvery-th is caught.
func TestDecideDPI(t *testing.T) {
	w := newTwin(t)
	for i := 0; i < workload.DirtyEvery; i++ {
		dirty := i == workload.DirtyEvery-1
		if got := w.decide(t, workload.DPI, parse(t, workload.HTTPRequest(i, workload.DPI))); got.Intended() == dirty {
			t.Errorf("DPI message %d: %v, dirty=%v", i, got, dirty)
		}
	}
}

// TestDecideAUTH: on both paths AUTH refuses exactly the tampered MACs.
func TestDecideAUTH(t *testing.T) {
	w := newTwin(t)
	for i := 0; i < workload.TamperEvery+2; i++ {
		tampered := i%workload.TamperEvery == workload.TamperEvery-1
		if got := w.decide(t, workload.AUTH, parse(t, workload.HTTPRequest(i, workload.AUTH))); got.Intended() == tampered {
			t.Errorf("AUTH message %d: %v, tampered=%v", i, got, tampered)
		}
	}
}

// TestDecideRefuses: a use case Decide does not know, and an AUTH message
// without a MAC, are unprocessable on both paths.
func TestDecideRefuses(t *testing.T) {
	w := newTwin(t)
	req := parse(t, workload.HTTPRequest(0, workload.FR))
	if got := w.decide(t, workload.UseCase(9), req); got != verdict.OutParseError {
		t.Errorf("unknown use case: %v", got)
	}
	if got := w.decide(t, workload.AUTH, req); got != verdict.OutParseError {
		t.Errorf("AUTH without X-AON-MAC: %v", got)
	}
}
