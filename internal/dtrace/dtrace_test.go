package dtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHeaderValueRoundTrip(t *testing.T) {
	tr, sp := NewID(), NewID()
	v := AppendHeaderValue(nil, tr, sp)
	if len(v) != 33 {
		t.Fatalf("header value %q: want 33 bytes", v)
	}
	gtr, gsp, ok := ParseHeaderValue(v)
	if !ok || gtr != tr || gsp != sp {
		t.Fatalf("ParseHeaderValue(%q) = %v %v %v; want %v %v true", v, gtr, gsp, ok, tr, sp)
	}
	gtr, gsp, ok = ParseHeaderValue(string(v))
	if !ok || gtr != tr || gsp != sp {
		t.Fatalf("ParseHeaderValue(string %q) = %v %v %v", v, gtr, gsp, ok)
	}
}

func TestParseHeaderValueRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"deadbeef",
		"0000000000000000-1111111111111111", // zero trace ID
		"111111111111111g-2222222222222222", // bad hex
		"11111111111111112222222222222222",  // missing dash
		"1111111111111111-22222222222222221",
	} {
		if _, _, ok := ParseHeaderValue(in); ok {
			t.Errorf("ParseHeaderValue(%q) accepted", in)
		}
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	id := ID(0xdeadbeef01020304)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef01020304"` {
		t.Fatalf("marshal = %s", b)
	}
	var got ID
	if err := json.Unmarshal(b, &got); err != nil || got != id {
		t.Fatalf("unmarshal = %v, %v", got, err)
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := GetRecorder("gw")
	defer PutRecorder(r)
	t0 := time.Now()
	r.Begin("gateway", t0)
	r.Add(StageRead, t0, 5*time.Microsecond)
	fid := NewID()
	r.Child(fid, StageForward, t0.Add(10*time.Microsecond), 100*time.Microsecond)
	r.Annotate("FR", "forwarded", 200)
	r.Finish(t0.Add(150 * time.Microsecond))
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	root := spans[0]
	if root.Name != "gateway" || root.UseCase != "FR" || root.Status != 200 || root.DurUS < 100 {
		t.Fatalf("root = %+v", root)
	}
	for _, sp := range spans[1:] {
		if sp.ParentID != root.SpanID || sp.TraceID != root.TraceID {
			t.Fatalf("child not parented to root: %+v", sp)
		}
	}
	if spans[2].SpanID != fid {
		t.Fatalf("forward span ID not caller-chosen: %v != %v", spans[2].SpanID, fid)
	}
	if spans[1].Name != "read" || r.Stage(1) != StageRead || spans[2].Name != "forward" || r.Stage(2) != StageForward {
		t.Fatalf("stage spans misnamed: %q/%v %q/%v", spans[1].Name, r.Stage(1), spans[2].Name, r.Stage(2))
	}
}

func TestRecorderAdoptRewritesRecordedSpans(t *testing.T) {
	r := GetRecorder("gw")
	defer PutRecorder(r)
	t0 := time.Now()
	r.Begin("gateway", t0)
	r.Add(StageRead, t0, time.Microsecond)
	clientTrace, clientSpan := NewID(), NewID()
	r.Adopt(clientTrace, clientSpan)
	for _, sp := range r.Spans() {
		if sp.TraceID != clientTrace {
			t.Fatalf("span kept old trace ID: %+v", sp)
		}
	}
	if r.Spans()[0].ParentID != clientSpan {
		t.Fatalf("root not parented under client span: %+v", r.Spans()[0])
	}
	if r.TraceID() != clientTrace {
		t.Fatalf("TraceID() = %v", r.TraceID())
	}
}

func TestRecorderBounded(t *testing.T) {
	r := GetRecorder("gw")
	defer PutRecorder(r)
	r.Begin("root", time.Now())
	for i := 0; i < 2*maxSpans; i++ {
		r.Add(StageParse, time.Now(), time.Microsecond)
	}
	if len(r.Spans()) != maxSpans {
		t.Fatalf("recorder not bounded: %d spans", len(r.Spans()))
	}
}

func TestTailKeepRules(t *testing.T) {
	tail := NewTail(TailConfig{Capacity: 16, SlowOverUS: 1000, KeepEvery: 4})
	offer := func(durUS int64, isErr bool) bool {
		r := GetRecorder("gw")
		defer PutRecorder(r)
		r.Begin("gateway", time.Now())
		r.spans[0].DurUS = durUS
		return tail.Offer(r, isErr)
	}
	if !offer(10, true) {
		t.Fatal("errored trace dropped")
	}
	if !offer(5000, false) {
		t.Fatal("slow trace dropped")
	}
	kept := 0
	for i := 0; i < 40; i++ {
		if offer(10, false) {
			kept++
		}
	}
	if kept != 10 {
		t.Fatalf("probabilistic keep = %d/40, want 10 (1-in-4)", kept)
	}
	st := tail.Stats()
	if st.KeptErr != 1 || st.KeptSlow != 1 || st.KeptProb != 10 || st.Seen != 42 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	r := newRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(Trace{TraceID: ID(i)})
	}
	got := r.Last(0)
	if len(got) != 3 || got[0].TraceID != 3 || got[2].TraceID != 5 {
		t.Fatalf("Last(0) = %+v", got)
	}
	got = r.Last(2)
	if len(got) != 2 || got[0].TraceID != 4 {
		t.Fatalf("Last(2) = %+v", got)
	}
	if r.Kept() != 5 {
		t.Fatalf("Kept = %d", r.Kept())
	}
}

func TestTailConcurrent(t *testing.T) {
	tail := NewTail(TailConfig{Capacity: 64, SlowOverUS: -1, KeepEvery: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := GetRecorder("gw")
				r.Begin("gateway", time.Now())
				tail.Offer(r, i%7 == 0)
				PutRecorder(r)
			}
		}()
	}
	wg.Wait()
	st := tail.Stats()
	if st.Seen != 1600 || st.Kept != st.KeptErr+st.KeptSlow+st.KeptProb {
		t.Fatalf("stats = %+v", st)
	}
}

// buildFleetSpans fabricates a forwarded request seen by client,
// gateway, and backend, all joined by one trace ID.
func buildFleetSpans(trace ID) []Span {
	cli, gw, fwd, be := NewID(), NewID(), NewID(), NewID()
	return []Span{
		{TraceID: trace, SpanID: cli, Node: "client", Name: "request", StartUS: 1000, DurUS: 900},
		{TraceID: trace, SpanID: gw, ParentID: cli, Node: "gateway", Name: "gateway", StartUS: 1010, DurUS: 800, UseCase: "FR", Outcome: "forwarded", Status: 200},
		{TraceID: trace, SpanID: NewID(), ParentID: gw, Node: "gateway", Name: "parse", StartUS: 1020, DurUS: 100},
		{TraceID: trace, SpanID: fwd, ParentID: gw, Node: "gateway", Name: "forward", StartUS: 1200, DurUS: 500},
		{TraceID: trace, SpanID: be, ParentID: fwd, Node: "backend0", Name: "serve", StartUS: 50, DurUS: 300, Status: 200},
	}
}

func TestAssembleJoinsAcrossNodesAndDedups(t *testing.T) {
	trace := NewID()
	spans := buildFleetSpans(trace)
	// Duplicate arrivals (scrape + artifact) must collapse.
	spans = append(spans, spans...)
	// A second, single-node trace.
	other := NewID()
	spans = append(spans, Span{TraceID: other, SpanID: NewID(), Node: "gateway", Name: "gateway", DurUS: 50})

	traces := Assemble(spans)
	if len(traces) != 2 {
		t.Fatalf("assembled %d traces", len(traces))
	}
	at := traces[0]
	if at.TraceID != trace || len(at.Spans) != 5 {
		t.Fatalf("trace 0: id=%v spans=%d", at.TraceID, len(at.Spans))
	}
	if len(at.Nodes) != 3 || at.Nodes[0] != "backend0" || at.Nodes[1] != "client" || at.Nodes[2] != "gateway" {
		t.Fatalf("nodes = %v", at.Nodes)
	}
	if len(at.Roots) != 1 || at.Spans[at.Roots[0]].Name != "request" {
		t.Fatalf("roots = %v", at.Roots)
	}
	// forward's self-time excludes the backend serve span it parents.
	for i := range at.Spans {
		switch at.Spans[i].Name {
		case "forward":
			if at.SelfUS[i] != 200 { // 500 - 300
				t.Fatalf("forward self = %d", at.SelfUS[i])
			}
		case "gateway":
			if at.SelfUS[i] != 200 { // 800 - 100 - 500
				t.Fatalf("gateway self = %d", at.SelfUS[i])
			}
		}
	}
	if at.RootDurUS() != 900 {
		t.Fatalf("root dur = %d", at.RootDurUS())
	}
}

func TestFormatReport(t *testing.T) {
	var spans []Span
	for i := 0; i < 5; i++ {
		spans = append(spans, buildFleetSpans(NewID())...)
	}
	traces := Assemble(spans)
	var buf bytes.Buffer
	FormatReport(&buf, traces, ReportOptions{TopTraces: 2, RankSpans: 5})
	out := buf.String()
	for _, want := range []string{
		"assembled traces: 5",
		"cross-node traces: 5/5",
		"critical path",
		"serve",
		"slowest spans",
		"slowest traces",
		"nodes=backend0,client,gateway",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReadSpansJSONLBothShapes(t *testing.T) {
	trace := NewID()
	spans := buildFleetSpans(trace)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Two bare spans, then a Trace line with the rest.
	for _, sp := range spans[:2] {
		if err := enc.Encode(sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(Trace{TraceID: trace, Spans: spans[2:]}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("read %d spans, want %d", len(got), len(spans))
	}
	if len(Assemble(got)) != 1 {
		t.Fatal("round-tripped spans did not assemble into one trace")
	}
}

// FuzzParseHeaderValue: the X-AON-Trace parser never panics, a refused
// value returns no IDs, and an accepted value formats back to IDs that
// parse to themselves — the string view in, the byte view back.
func FuzzParseHeaderValue(f *testing.F) {
	f.Add(string(AppendHeaderValue(nil, 0xdeadbeef01020304, 7)))
	for _, seed := range []string{
		"",
		"deadbeef",
		"0000000000000000-1111111111111111",
		"111111111111111g-2222222222222222",
		"11111111111111112222222222222222",
		"1111111111111111-22222222222222221",
		"ABCDEF0123456789-abcdef0123456789",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, sp, ok := ParseHeaderValue(in)
		if !ok {
			if tr != 0 || sp != 0 {
				t.Fatalf("refused %q but returned IDs %v %v", in, tr, sp)
			}
			return
		}
		rtr, rsp, rok := ParseHeaderValue(AppendHeaderValue(nil, tr, sp))
		if !rok || rtr != tr || rsp != sp {
			t.Fatalf("%q → %v %v does not survive a format/parse round trip: %v %v %v", in, tr, sp, rtr, rsp, rok)
		}
	})
}
