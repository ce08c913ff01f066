package xmldom_test

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	aon "repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/wcrypto"
	"repro/internal/workload"
	"repro/internal/xmldom/xmltest"
)

// post wraps body in the POST the load generators send for uc (a correct
// X-AON-MAC included for AUTH), so any body — schema-invalid, malformed —
// can be put through both pipelines.
func post(uc workload.UseCase, body []byte) []byte {
	mac := wcrypto.HMAC(workload.AuthKey, body, nil, 0)
	return postMAC(uc, body, hex.EncodeToString(mac[:]))
}

// postMAC is post with the X-AON-MAC value given.
func postMAC(uc workload.UseCase, body []byte, mac string) []byte {
	req := &httpmsg.Request{
		Method: "POST",
		Target: fmt.Sprintf("http://aon-gw.example.com/service/%s", uc),
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "Content-Length", Value: fmt.Sprint(len(body))},
		},
		Body: body,
	}
	if uc == workload.AUTH {
		req.Headers = append(req.Headers, httpmsg.Header{Name: "X-AON-MAC", Value: mac})
	}
	return httpmsg.FormatRequest(req)
}

// TestLiveAndSimulatedVerdictsAgree is ROADMAP 5(e): for the same request
// bytes the live gateway.Pipeline.Process and the simulator-side
// aon.ProcessOne (internal/core) send the message to the same place —
// intended endpoint, error endpoint, or refused as unparseable. Both sit
// on the one tokenizer, so a malformed body cannot be a 400 live and a
// routed message in simulation; what differs is everything around it: a
// pooled parser reused across every message here against a fresh one per
// call, views into the request against a private copy, separately built
// expression, schema and matcher, and two hand-written dispatch switches.
// Inputs: the load generators' own requests under seeds 1–3 (enough
// indices to hit both CBR routes, a DPI signature and a tampered MAC),
// their schema-invalid variants, and every document of the differential
// corpus — rejected and accepted — as a body; for AUTH also correct MACs
// written in upper-case hex, which both must accept (hex is
// case-insensitive; the live pipeline once compared strings).
func TestLiveAndSimulatedVerdictsAgree(t *testing.T) {
	pipe, err := gateway.NewPipeline(workload.FR, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV, workload.DPI, workload.AUTH} {
		var raws [][]byte
		for seed := uint64(1); seed <= 3; seed++ {
			for i := 0; i < 2*workload.TamperEvery; i++ {
				raws = append(raws,
					workload.HTTPRequestSeeded(i, uc, workload.MessageBytes, seed),
					post(uc, workload.InvalidSOAPMessageSeeded(i, workload.MessageBytes, seed)))
			}
		}
		for _, doc := range xmltest.Corpus() {
			raws = append(raws, post(uc, doc))
		}
		upper := map[int]bool{}
		if uc == workload.AUTH {
			for i := 0; i < 3; i++ {
				body := workload.SOAPMessageSeeded(i, workload.MessageBytes, 1)
				mac := wcrypto.HMAC(workload.AuthKey, body, nil, 0)
				upper[len(raws)] = true
				raws = append(raws, postMAC(uc, body, strings.ToUpper(hex.EncodeToString(mac[:]))))
			}
		}
		for i, raw := range raws {
			sim := "parse-error"
			if ok, err := aon.ProcessOne(uc, raw); err == nil {
				sim = map[bool]string{true: "intended", false: "error"}[ok]
			}
			req, err := httpmsg.ParseRequest(raw)
			if err != nil {
				t.Fatal(err)
			}
			live := "intended"
			switch pipe.Process(uc, req) {
			case gateway.OutParseError:
				live = "parse-error"
			case gateway.OutNoMatch:
				live = "error"
			}
			if live != sim {
				t.Errorf("%v: live %s, simulated %s for body %.60q", uc, live, sim, req.Body)
			}
			if upper[i] && live != "intended" {
				t.Errorf("AUTH: upper-case MAC refused (%s)", live)
			}
			seen[uc.String()+" "+live]++
		}
	}
	// The inputs must actually exercise every verdict a use case has.
	for _, want := range []string{
		"FR intended",
		"CBR intended", "CBR error", "CBR parse-error",
		"SV intended", "SV error", "SV parse-error",
		"DPI intended", "DPI error",
		"AUTH intended", "AUTH error",
	} {
		if seen[want] == 0 {
			t.Errorf("no input produced %q (saw %v)", want, seen)
		}
	}
}
