package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/perf/trace"
	"repro/internal/upstream"
	"repro/internal/workload"
	"repro/internal/xj"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// The traced run: tracedTrips depth-1 round trips on one connection with
// no spans (the untraced reference), then as many again with spans. For
// each traced message the benchmark records a root span around the real
// round trip and then replays, on the same request bytes in its own
// goroutine, each layer the gateway ran for it — timed from here, around
// the layer's public call, never from inside the program.
const tracedTrips = 5000

// Span names. replay's children are the gateway's steps in order and sum
// to the in-process part of a round trip; kernels' children time the XML
// layers inside gateway.process on their own (tokenize is a second pass
// over the same bytes, not an extra step, so it is in no sum).
const (
	spRoundtrip = "roundtrip"
	spReplay    = "replay"
	spKernels   = "kernels"
	spParse     = "httpmsg.parse"
	spProcess   = "gateway.process"
	spFormat    = "httpmsg.format"
	spUpstream  = "upstream.roundtrip"
	spTokenize  = "xmldom.tokenize"
	spTree      = "xmldom.parse"
	spXPath     = "xpath.eval"
	spXSD       = "xsd.validate"
	spXJ        = "xj.translate"
)

// span is one timed call. Trace is the traced message's sequence number;
// times are nanoseconds since the traced run began.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans in a slice allocated before the first one is
// taken and, on the separate allocation pass, per-layer malloc tallies.
type tracer struct {
	epoch time.Time
	trace int
	spans []span

	memPass bool
	mem     map[string]memTally
	m0, m1  runtime.MemStats
}

type memTally struct{ calls, mallocs, bytes uint64 }

// group records a span that only contains other spans, handing fn its ID.
func (t *tracer) group(name string, fn func(id int)) {
	if t.memPass {
		fn(0)
		return
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Name: name, Start: int64(time.Since(t.epoch))})
	fn(id)
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// do times one layer call as a span under parent. On the allocation pass
// it counts the call's mallocs instead.
func (t *tracer) do(name string, parent int, fn func()) {
	if t.memPass {
		runtime.ReadMemStats(&t.m0)
		fn()
		runtime.ReadMemStats(&t.m1)
		ta := t.mem[name]
		ta.calls++
		ta.mallocs += t.m1.Mallocs - t.m0.Mallocs
		ta.bytes += t.m1.TotalAlloc - t.m0.TotalAlloc
		t.mem[name] = ta
		return
	}
	s := time.Since(t.epoch)
	fn()
	e := time.Since(t.epoch)
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(s), End: int64(e)})
}

// replayer re-runs the gateway's layers on a request, with the same
// pre-compiled artifacts and reused scratch the gateway's workers hold.
type replayer struct {
	pipe   *gateway.Pipeline
	expr   *xpath.Expr
	eval   *xpath.Evaluator
	schema *xsd.Schema
	fwd    *upstream.Forwarder // nil when the gateway answers in place

	req    httpmsg.Request
	resp   httpmsg.Response
	up     httpmsg.Request
	head   []byte
	upHead []byte
	tz     xmldom.Tokenizer

	invalid, validated int
	xmlBytes, xjBytes  []float64 // body sizes tokenized, translations produced
	err                error
}

func newReplayer(e *env) (*replayer, error) {
	pipe, err := gateway.NewPipeline(workload.FR, "", nil)
	if err != nil {
		return nil, err
	}
	expr, err := xpath.Compile("//quantity/text()")
	if err != nil {
		return nil, err
	}
	r := &replayer{pipe: pipe, expr: expr, eval: xpath.NewEvaluator(nil), schema: workload.OrderSchema()}
	if e.sp.forward {
		r.fwd, err = upstream.New(upstream.Config{Order: e.addrs["order"], Error: e.addrs["error"]})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() {
	if r.fwd != nil {
		r.fwd.Close()
	}
}

func (r *replayer) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// replay runs every layer the gateway runs for m, each as one span.
func (r *replayer) replay(t *tracer, m *poolMsg) {
	t.group(spReplay, func(parent int) {
		t.do(spParse, parent, func() {
			r.fail(httpmsg.ParseRequestInto(m.raw, &r.req))
		})
		t.do(spProcess, parent, func() {
			if out := r.pipe.Process(m.uc, &r.req); out.String() != m.outcome {
				r.fail(fmt.Errorf("replayed %v gave %v, want %s", m.uc, out, m.outcome))
			}
		})
		if r.fwd != nil {
			// The forward hop, as gateway.forward makes it: a fresh header
			// block, the (possibly translated) body as a second segment.
			t.do(spUpstream, parent, func() {
				r.up = httpmsg.Request{Method: "POST", Target: httpmsg.RewriteTarget(&r.req, trace.Nop{}), Proto: "HTTP/1.1", Headers: r.up.Headers[:0]}
				ct, _ := r.req.Get("Content-Type")
				r.up.Headers = append(r.up.Headers,
					httpmsg.Header{Name: "Host", Value: m.route},
					httpmsg.Header{Name: "Content-Type", Value: ct},
					httpmsg.Header{Name: gateway.RouteHeader, Value: m.route},
					httpmsg.Header{Name: "X-AON-Outcome", Value: m.outcome},
					httpmsg.Header{Name: "X-AON-Usecase", Value: m.uc.String()},
				)
				r.upHead = httpmsg.AppendRequestHeader(r.upHead[:0], &r.up, len(r.req.Body))
				res, err := r.fwd.RoundTripBuffers(m.route, r.upHead, r.req.Body)
				if err == nil && res.Status != 200 {
					err = fmt.Errorf("backend answered %d", res.Status)
				}
				r.fail(err)
			})
		}
		t.do(spFormat, parent, func() {
			r.resp = httpmsg.Response{Status: 200, Headers: r.resp.Headers[:0]}
			r.resp.Headers = append(r.resp.Headers,
				httpmsg.Header{Name: "Content-Type", Value: "application/json"},
				httpmsg.Header{Name: gateway.RouteHeader, Value: m.route},
				httpmsg.Header{Name: "X-AON-Outcome", Value: m.outcome},
			)
			r.head = httpmsg.AppendResponseHeader(r.head[:0], &r.resp, len(m.body))
		})
	})
	if m.uc == workload.FR {
		return
	}
	// Process may have rewritten the request (XJ); start from the wire
	// bytes again, outside any span.
	r.fail(httpmsg.ParseRequestInto(m.raw, &r.req))
	body := r.req.Body
	t.group(spKernels, func(parent int) {
		r.xmlBytes = append(r.xmlBytes, float64(len(body)))
		t.do(spTokenize, parent, func() {
			r.tz.Reset(body)
			for {
				tok, err := r.tz.Next()
				if err != nil || tok.Kind == xmldom.TokEOF {
					r.fail(err)
					return
				}
			}
		})
		var sp *xmldom.StreamParser
		var doc *xmldom.Node
		t.do(spTree, parent, func() {
			var err error
			sp = xmldom.AcquireStreamParser()
			doc, err = sp.Parse(body)
			r.fail(err)
		})
		if doc != nil {
			switch m.uc {
			case workload.CBR:
				t.do(spXPath, parent, func() {
					_, err := r.eval.EvalString(r.expr, doc)
					r.fail(err)
				})
			case workload.SV:
				t.do(spXSD, parent, func() {
					r.validated++
					if len(xsd.Validate(r.schema, doc)) > 0 {
						r.invalid++
					}
				})
			case workload.XJ:
				var out []byte
				t.do(spXJ, parent, func() {
					var err error
					out, err = xj.Translate(doc)
					r.fail(err)
				})
				r.xjBytes = append(r.xjBytes, float64(len(out)))
			}
		}
		sp.Release()
	})
}

// ledgerRow is one line of the layers-add-up table: a layer's median
// time per message of one use case and its share of that use case's
// measured round trip.
type ledgerRow struct {
	UseCase string  `json:"usecase"`
	Layer   string  `json:"layer"`
	NS      float64 `json:"ns"`
	Share   float64 `json:"share_of_roundtrip"`
	// InSum marks the rows that add up to "sum of layers"; the rest break
	// gateway.process down or are totals.
	InSum bool `json:"in_sum"`
}

// traced is what the traced run yields.
type traced struct {
	perLayer map[string]float64
	ledger   []ledgerRow
	spanFile string
}

// traceRun does the traced run against the live environment and writes
// the spans to outDir/trace-<workload>.jsonl.
func (e *env) traceRun(outDir string, trips int) (traced, error) {
	var res traced
	rp, err := newReplayer(e)
	if err != nil {
		return res, err
	}
	defer rp.close()
	cl, err := gateway.Dial(e.srv.Addr().String())
	if err != nil {
		return res, err
	}
	defer cl.Close()

	trip := func(m *poolMsg) {
		resp, err := cl.Do(m.raw, ioTimeout)
		if err == nil && (resp.Status != 200 || resp.Outcome != m.outcome) {
			err = fmt.Errorf("traced round trip: status %d outcome %q, want 200 %q", resp.Status, resp.Outcome, m.outcome)
		}
		rp.fail(err)
	}
	untraced := make([]float64, 0, trips)
	for i := 0; i < trips && rp.err == nil; i++ {
		t0 := time.Now()
		trip(&e.pool[i%len(e.pool)])
		untraced = append(untraced, float64(time.Since(t0)))
	}

	// At most 12 spans per message (XML use case, forwarded).
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 12*trips)}
	ucOf := make([]workload.UseCase, trips)
	// Round trips first, replays after: interleaved, each replay would
	// leave the gateway's goroutines cold for the next round trip.
	for i := 0; i < trips && rp.err == nil; i++ {
		m := &e.pool[i%len(e.pool)]
		t.trace, ucOf[i] = i, m.uc
		t.do(spRoundtrip, 0, func() { trip(m) })
	}
	for i := 0; i < trips && rp.err == nil; i++ {
		t.trace = i
		rp.replay(t, &e.pool[i%len(e.pool)])
	}

	// Allocation pass: every pool message once more, counting mallocs
	// around each layer call instead of timing it.
	t.memPass, t.mem = true, map[string]memTally{}
	for i := range e.pool {
		if rp.err != nil {
			break
		}
		rp.replay(t, &e.pool[i])
	}
	if rp.err != nil {
		return res, rp.err
	}

	res.spanFile = filepath.Join(outDir, "trace-"+e.sp.name+".jsonl")
	if err := writeSpans(res.spanFile, t.spans); err != nil {
		return res, err
	}
	res.perLayer, res.ledger = summarize(t, rp, ucOf, median(untraced))
	return res, nil
}

// summarize turns the spans and malloc tallies of a traced run into the
// per-layer metrics and the ledger. ucOf is each trace's use case.
func summarize(t *tracer, rp *replayer, ucOf []workload.UseCase, untracedP50 float64) (map[string]float64, []ledgerRow) {
	// Durations per (use case, span name).
	type key struct {
		uc   workload.UseCase
		name string
	}
	durs := map[key][]float64{}
	var roundtrips []float64
	for _, s := range t.spans {
		k := key{ucOf[s.Trace], s.Name}
		durs[k] = append(durs[k], float64(s.End-s.Start))
		if s.Name == spRoundtrip {
			roundtrips = append(roundtrips, float64(s.End-s.Start))
		}
	}
	ucCount := map[workload.UseCase]int{}
	for _, uc := range ucOf {
		ucCount[uc]++
	}
	ucs := make([]workload.UseCase, 0, len(ucCount))
	for uc := range ucCount {
		ucs = append(ucs, uc)
	}
	sort.Slice(ucs, func(i, j int) bool { return ucs[i] < ucs[j] })

	// perCall is a layer's time per call: the median per use case,
	// averaged over the use cases that run the layer, weighted by their
	// share of the messages. With one use case it is the plain median.
	perCall := func(name string) float64 {
		var sum, weight float64
		for _, uc := range ucs {
			if d := durs[key{uc, name}]; len(d) > 0 {
				sum += median(d) * float64(ucCount[uc])
				weight += float64(ucCount[uc])
			}
		}
		return ratio(sum, weight)
	}

	var ledger []ledgerRow
	var residual float64 // per message over the whole workload, ns
	for _, uc := range ucs {
		rt := median(durs[key{uc, spRoundtrip}])
		row := func(layer string, ns float64, inSum bool) {
			ledger = append(ledger, ledgerRow{UseCase: uc.String(), Layer: layer, NS: ns, Share: ns / rt, InSum: inSum})
		}
		var sum float64
		for _, name := range []string{spParse, spProcess, spUpstream, spFormat} {
			if d := durs[key{uc, name}]; len(d) > 0 {
				sum += median(d)
				row(name, median(d), true)
			}
			if name != spProcess {
				continue
			}
			for _, kernel := range []string{spTree, spTokenize, spXPath, spXSD, spXJ} {
				if d := durs[key{uc, kernel}]; len(d) > 0 {
					row("  "+kernel, median(d), false)
				}
			}
		}
		row("sum of layers", sum, false)
		row("residual", rt-sum, false)
		row(spRoundtrip, rt, false)
		residual += (rt - sum) * float64(ucCount[uc]) / float64(len(ucOf))
	}

	// Mallocs and bytes per call, from the allocation pass.
	mallocs := func(name string) float64 {
		ta := t.mem[name]
		return ratio(float64(ta.mallocs), float64(ta.calls))
	}
	bytes := func(name string) float64 {
		ta := t.mem[name]
		return ratio(float64(ta.bytes), float64(ta.calls))
	}
	rtNS := perCall(spRoundtrip)
	return map[string]float64{
		"httpmsg.parse_ns":     perCall(spParse),
		"httpmsg.parse_allocs": mallocs(spParse),
		"httpmsg.format_ns":    perCall(spFormat),

		"xmldom.tokenize_ns":         perCall(spTokenize),
		"xmldom.tokenize_mb_per_sec": ratio(median(rp.xmlBytes)/1e6, perCall(spTokenize)/1e9),
		"xmldom.parse_ns":            perCall(spTree),
		"xmldom.parse_allocs":        mallocs(spTree),
		"xmldom.parse_bytes":         bytes(spTree),

		"xpath.eval_ns":     perCall(spXPath),
		"xpath.eval_allocs": mallocs(spXPath),
		"xpath.eval_bytes":  bytes(spXPath),

		"xsd.validate_ns":     perCall(spXSD),
		"xsd.validate_allocs": mallocs(spXSD),
		"xsd.invalid_share":   ratio(float64(rp.invalid), float64(rp.validated)),

		"xj.translate_ns":     perCall(spXJ),
		"xj.translate_allocs": mallocs(spXJ),
		"xj.out_bytes":        median(rp.xjBytes),

		"gateway.process_ns":     perCall(spProcess),
		"gateway.roundtrip_us":   rtNS / 1e3,
		"gateway.residual_us":    residual / 1e3,
		"gateway.residual_share": ratio(residual, rtNS),

		"upstream.roundtrip_us": perCall(spUpstream) / 1e3,

		"trace.spans":        float64(len(t.spans)),
		"trace.overhead_pct": 100 * ratio(median(roundtrips)-untracedP50, untracedP50),
	}, ledger
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
