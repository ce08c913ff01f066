package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	// Every value lands in a bucket whose midpoint is within 1/256 of it.
	for v := uint64(1); v < 1<<39; v += v/97 + 1 {
		got := histValue(histIndex(v))
		if err := math.Abs(got-float64(v)) / float64(v); err > 1.0/256+1e-12 {
			t.Fatalf("value %d reads back as %.1f (%.3f %% off)", v, got, 100*err)
		}
	}
	// Quantiles of a log-uniform sample from 1 us to 100 ms.
	var h hist
	var exact []float64
	x := uint64(88172645463325252)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := math.Exp(math.Log(1e3) + float64(x%1000000)/1e6*math.Log(1e5))
		h.record(int64(v))
		exact = append(exact, math.Floor(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, want)
		}
	}
	if h.n != 200000 || float64(h.max) != exact[len(exact)-1] {
		t.Errorf("n %d max %d, want 200000 and %.0f", h.n, h.max, exact[len(exact)-1])
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram must read 0")
	}
}

func TestWindowStatistics(t *testing.T) {
	// The best tenth ignores how bad the disturbed windows were.
	rates := []float64{100, 101, 99, 100, 20, 100, 102, 98, 100, 100, 103, 97, 100, 100, 60, 100, 104, 96, 100, 100}
	if got := best(rates, true); got != 103.5 {
		t.Errorf("best tenth of rates = %v, want 103.5", got)
	}
	rates[4], rates[14] = 5, 5
	if got := best(rates, true); got != 103.5 {
		t.Errorf("best tenth moved to %v with the slow windows", got)
	}
	if got := best([]float64{9, 3, 7}, false); got != 3 {
		t.Errorf("lowest of three = %v", got)
	}
	if best(nil, true) != 0 {
		t.Error("best of nothing must be 0")
	}

	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One disturbed window out of ten does not move the median.
		{[]float64{100, 101, 99, 100, 20, 100, 102, 98, 100, 100}, 100},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("cv = %v, want 0.4", got)
	}
	if cv(nil) != 0 || cv([]float64{0, 0}) != 0 {
		t.Error("cv of nothing must be 0")
	}
}

func TestPoolIsSeededAndChecked(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, err := buildPool(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPool(sp, 7)
		c, _ := buildPool(sp, 8)
		same, differ := true, false
		outcomes := map[string]int{}
		for j := range a {
			same = same && bytes.Equal(a[j].raw, b[j].raw)
			differ = differ || !bytes.Equal(a[j].raw, c[j].raw)
			outcomes[a[j].uc.String()+"/"+a[j].outcome]++
		}
		if !same || !differ {
			t.Errorf("%s: same seed same bytes %v, other seed other bytes %v", sp.name, same, differ)
		}
		switch sp.name {
		case "cbr-5k-sat":
			if outcomes["CBR/match"] != poolSize/2 || outcomes["CBR/error"] != poolSize/2 {
				t.Errorf("cbr routes: %v", outcomes)
			}
		case "sv-5k-sat":
			if outcomes["SV/valid"] != 3*poolSize/4 || outcomes["SV/error"] != poolSize/4 {
				t.Errorf("sv verdicts: %v", outcomes)
			}
		case "mix-fwd-5k-paced":
			if outcomes["FR/forwarded"] != poolSize/2 || outcomes["CBR/match"] != poolSize/8 ||
				outcomes["CBR/error"] != poolSize/8 || outcomes["SV/valid"] != poolSize/8 || outcomes["XJ/translated"] != poolSize/8 {
				t.Errorf("mix: %v", outcomes)
			}
		}
	}
}

// canned is a response the fake servers below send.
func canned(outcome, backend, body string) string {
	s := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-AON-Route: order\r\nX-AON-Outcome: " + outcome + "\r\n"
	if backend != "" {
		s += "X-AON-Backend: " + backend + "\r\n"
	}
	return s + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

func TestBatchBuilderAndResponseMatcher(t *testing.T) {
	pool := []poolMsg{
		{raw: []byte("AAAA"), outcome: "match", route: "order", body: []byte(`{"a":1}`)},
		{raw: []byte("BB"), outcome: "error", route: "error"},
		{raw: []byte("CCC"), outcome: "valid", route: "order"},
		{raw: []byte("D"), outcome: "forwarded", route: "order"},
		{raw: []byte("left over")},
	}
	batches := buildBatches(pool, 2)
	if len(batches) != 2 || string(batches[0].wire) != "AAAABB" || string(batches[1].wire) != "CCCD" {
		t.Fatalf("batches: %+v", batches)
	}
	if batches[1].msgs[1] != &pool[3] || string(pool[2].raw) != "CCC" || &pool[2].raw[0] != &batches[1].wire[0] {
		t.Fatal("batch messages must be the pool's own, their bytes views into the batch")
	}

	backends := map[string]string{"order": "127.0.0.1:1", "error": "127.0.0.1:2"}
	wire := canned("match", "", `{"a":1}`) + canned("error", "127.0.0.1:2", `{"ack":7}`) +
		strings.Replace(canned("valid", "", ""), "200 OK", "503 Service Unavailable", 1)
	rd := respReader{br: bufio.NewReader(strings.NewReader(wire))}

	if err := rd.next(); err != nil {
		t.Fatal(err)
	}
	if why := rd.mismatch(&pool[0], nil); why != "" {
		t.Errorf("correct in-place answer rejected: %s", why)
	}
	for _, wrong := range []poolMsg{
		{outcome: "error", body: []byte(`{"a":1}`)},
		{outcome: "match", body: []byte(`{"a":2}`)},
	} {
		if rd.mismatch(&wrong, nil) == "" {
			t.Errorf("answer accepted for %+v", wrong)
		}
	}
	if rd.mismatch(&pool[0], backends) == "" {
		t.Error("in-place answer accepted where a backend must have served")
	}

	if err := rd.next(); err != nil {
		t.Fatal(err)
	}
	if why := rd.mismatch(&pool[1], backends); why != "" {
		t.Errorf("correct forwarded answer rejected: %s", why)
	}
	if rd.mismatch(&poolMsg{outcome: "error", route: "order"}, backends) == "" {
		t.Error("answer from the wrong backend accepted")
	}

	if err := rd.next(); err != nil {
		t.Fatal(err)
	}
	if why := rd.mismatch(&pool[2], nil); !strings.Contains(why, "503") {
		t.Errorf("shed response: %q", why)
	}
	if err := rd.next(); err != io.EOF {
		t.Errorf("end of stream: %v", err)
	}
}

// TestPacedCountsLatencyFromDueTime drives the open loop against a fake
// server that takes 3 ms per message on a 1 ms schedule: the generator
// falls behind, and both the latency (counted from when each message
// was due, not from when it was finally sent) and the reported lateness
// must show it.
func TestPacedCountsLatencyFromDueTime(t *testing.T) {
	const (
		n       = 20
		period  = time.Millisecond
		service = 3 * time.Millisecond
	)
	m := poolMsg{raw: []byte("POST /service/FR HTTP/1.1\r\nContent-Length: 0\r\n\r\n"), outcome: "forwarded", body: []byte("{}")}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(m.raw))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			time.Sleep(service)
			if _, err := c.Write([]byte(canned("forwarded", "", "{}"))); err != nil {
				return
			}
		}
	}()

	cn, err := dialConn(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.c.Close()
	tk, err := newTicker(5*time.Millisecond, period)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.close()
	batches := buildBatches([]poolMsg{m}, 1)
	cn.runPaced(batches, 0, tk, period, tk.first.Add(n*period))

	if cn.sent != n || cn.ok.Load() != n || cn.failed != 0 {
		t.Fatalf("sent %d ok %d failed %d (%s), want %d/%d/0", cn.sent, cn.ok.Load(), cn.failed, cn.firstErr, n, n)
	}
	// Message k is due at k ms and answered no sooner than 3(k+1) ms.
	if min := time.Duration(n*(service-period)) + period; time.Duration(cn.lat.max) < min {
		t.Errorf("worst latency %v; from the due time it is at least %v", time.Duration(cn.lat.max), min)
	}
	if p50 := time.Duration(cn.lat.quantile(0.5)); p50 < time.Duration(n/2)*(service-period) {
		t.Errorf("median latency %v does not count the wait behind the schedule", p50)
	}
	// From message 1 on, every send starts at least 2 ms after it was due.
	if cn.late < n-2 || time.Duration(cn.lag.quantile(0.5)) < period {
		t.Errorf("late %d of %d, median lag %v: lateness not reported", cn.late, n, time.Duration(cn.lag.quantile(0.5)))
	}
}

// TestSmokeEveryWorkload runs each workload end to end for 200 ms — set-up,
// measured interval with every check, traced run, span file — so go test
// covers the harness in a few seconds.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			e, err := setUp(sp, 5, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			m := e.measure(200 * time.Millisecond)
			if m.attempted == 0 || m.failed != 0 {
				t.Fatalf("attempted %d failed %d: %v", m.attempted, m.failed, m.failures)
			}
			const trips = 40
			tr, err := e.traceRun(t.TempDir(), trips)
			if err != nil {
				t.Fatal(err)
			}
			m.endToEnd["setup_s"] = 1
			if _, err := readings(endToEnd, m.endToEnd); err != nil {
				t.Error(err)
			}
			for k, v := range tr.perLayer {
				m.perLayer[k] = v
			}
			if _, err := readings(perLayer, m.perLayer); err != nil {
				t.Error(err)
			}
			if len(m.endToEnd) != len(endToEnd) || len(m.perLayer) != len(perLayer) {
				t.Errorf("%d end-to-end and %d per-layer values, catalogue has %d and %d",
					len(m.endToEnd), len(m.perLayer), len(endToEnd), len(perLayer))
			}
			res := result{EndToEnd: m.endToEnd, PerLayer: m.perLayer}
			for _, d := range headline {
				if res.value(d.Name) <= 0 {
					t.Errorf("%s = %v", d.Name, res.value(d.Name))
				}
			}
			if got := m.perLayer["gateway.messages"]; int64(got) != m.attempted {
				t.Errorf("gateway.messages %v, attempted %d", got, m.attempted)
			}
			if sp.forward && (m.perLayer["backend.served"] != float64(m.attempted) || m.perLayer["upstream.roundtrip_us"] <= 0) {
				t.Errorf("backend.served %v of %d, upstream.roundtrip_us %v", m.perLayer["backend.served"], m.attempted, m.perLayer["upstream.roundtrip_us"])
			}

			// The ledger closes: layers + residual = round trip, per use case.
			var sum, residual float64
			for _, r := range tr.ledger {
				switch {
				case r.InSum:
					sum += r.NS
				case r.Layer == "residual":
					residual = r.NS
				case r.Layer == spRoundtrip:
					if math.Abs(sum+residual-r.NS) > 1 {
						t.Errorf("%s ledger: layers %v + residual %v != round trip %v", r.UseCase, sum, residual, r.NS)
					}
					sum = 0
				}
			}
			if len(tr.ledger) == 0 {
				t.Error("no ledger")
			}

			// One span per line, every trace with its round trip and replay.
			f, err := os.Open(tr.spanFile)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines, roots := 0, map[string]int{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if s.End < s.Start || s.ID != lines+1 {
					t.Fatalf("span %+v on line %d", s, lines+1)
				}
				if s.Parent == 0 {
					roots[s.Name]++
				}
				lines++
			}
			if float64(lines) != tr.perLayer["trace.spans"] || roots[spRoundtrip] != trips || roots[spReplay] != trips {
				t.Errorf("%d span lines (trace.spans %v), roots %v", lines, tr.perLayer["trace.spans"], roots)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json at the
// repository root in step with what the program runs and prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %q paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q %q, program has %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, program has %d", len(got), kind, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s bound %v", d.Name, d.Bound)
		}
	}
}
