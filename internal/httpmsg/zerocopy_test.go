package httpmsg

import (
	"bytes"
	"testing"
	"unsafe"
)

func sampleRequest() *Request {
	return &Request{
		Method: "POST",
		Target: "/service/cbr",
		Proto:  "HTTP/1.1",
		Headers: []Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
		},
		Body: []byte("<a>body</a>"),
	}
}

func TestFormatToMatchesClassic(t *testing.T) {
	req := sampleRequest()
	if got, want := formatRequestTo(nil, req), FormatRequest(req); !bytes.Equal(got, want) {
		t.Fatalf("formatRequestTo:\n%q\nwant\n%q", got, want)
	}
	// Pre-declared Content-Length must not be duplicated.
	req.Headers = append(req.Headers, Header{Name: "content-length", Value: "11"})
	if got, want := formatRequestTo(nil, req), FormatRequest(req); !bytes.Equal(got, want) {
		t.Fatalf("formatRequestTo with clen:\n%q\nwant\n%q", got, want)
	}

	for _, res := range []*Response{
		{Status: 200, Headers: []Header{{Name: "X-AON-Outcome", Value: "match"}}, Body: []byte("ok")},
		{Status: 503, Reason: "Busy"},
		{Status: 500},
	} {
		if got, want := formatResponseTo(nil, res), FormatResponse(res); !bytes.Equal(got, want) {
			t.Fatalf("formatResponseTo(%d):\n%q\nwant\n%q", res.Status, got, want)
		}
	}
}

func TestFormatToAppendsToDst(t *testing.T) {
	dst := []byte("prefix")
	out := formatResponseTo(dst, &Response{Status: 200, Body: []byte("x")})
	if !bytes.HasPrefix(out, []byte("prefix")) {
		t.Fatalf("dst prefix lost: %q", out)
	}
	if !bytes.Equal(out[len("prefix"):], FormatResponse(&Response{Status: 200, Body: []byte("x")})) {
		t.Fatalf("appended bytes differ: %q", out)
	}
}

func TestParseRequestIntoMatchesClassic(t *testing.T) {
	cases := [][]byte{
		FormatRequest(sampleRequest()),
		[]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"),
		[]byte("POST /s HTTP/1.1\nContent-Length: 3\n\nabc"),
		[]byte("POST /s HTTP/1.1\r\nWeird:   padded value  \r\n\r\n"),
		// Rejections.
		[]byte("POST /s\r\n\r\n"),
		[]byte("BREW /s HTTP/1.1\r\n\r\n"),
		[]byte("POST /s SPDY/3\r\n\r\n"),
		[]byte("POST /s HTTP/1.1\r\nno-colon-here\r\n\r\n"),
		[]byte("POST /s HTTP/1.1\r\n \t: blank name\r\n\r\n"),
		[]byte("POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
		[]byte("POST /s HTTP/1.1\r\nnever-terminated"),
	}
	var into Request
	for _, src := range cases {
		want, wantErr := ParseRequest(src)
		gotErr := ParseRequestInto(src, &into)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept mismatch on %q: classic=%v into=%v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if into.Method != want.Method || into.Target != want.Target || into.Proto != want.Proto {
			t.Fatalf("request line mismatch on %q: %+v vs %+v", src, into, want)
		}
		if len(into.Headers) != len(want.Headers) {
			t.Fatalf("header count mismatch on %q: %v vs %v", src, into.Headers, want.Headers)
		}
		for i := range want.Headers {
			if into.Headers[i] != want.Headers[i] {
				t.Fatalf("header %d mismatch on %q: %+v vs %+v", i, src, into.Headers[i], want.Headers[i])
			}
		}
		if !bytes.Equal(into.Body, want.Body) {
			t.Fatalf("body mismatch on %q: %q vs %q", src, into.Body, want.Body)
		}
	}
}

func TestParseRequestIntoReusesHeaders(t *testing.T) {
	var req Request
	src1 := []byte("POST /a HTTP/1.1\r\nH1: v1\r\nH2: v2\r\nH3: v3\r\n\r\n")
	if err := ParseRequestInto(src1, &req); err != nil {
		t.Fatal(err)
	}
	backing := &req.Headers[0]
	src2 := []byte("GET /b HTTP/1.1\r\nOnly: one\r\n\r\n")
	if err := ParseRequestInto(src2, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Headers) != 1 || req.Headers[0] != (Header{Name: "Only", Value: "one"}) {
		t.Fatalf("second parse headers: %+v", req.Headers)
	}
	if backing != &req.Headers[0] {
		t.Fatal("headers backing array was not reused")
	}
}

// within reports whether the n bytes at p lie inside buf; an empty view
// points nowhere and always passes.
func within(buf []byte, p *byte, n int) bool {
	if n == 0 {
		return true
	}
	if len(buf) == 0 || p == nil {
		return false
	}
	lo, at := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(p))
	return at >= lo && at+uintptr(n) <= lo+uintptr(len(buf))
}

// FuzzParseRequestInto: the zero-copy parser on its own, over arbitrary
// bytes, must never panic; every accepted request's Target, header views
// and Body must be views into the input, not copies or stray memory; and
// re-serialising an accepted request and parsing that again must give
// the same method, target, headers and body.
func FuzzParseRequestInto(f *testing.F) {
	f.Add(FormatRequest(sampleRequest()))
	f.Add([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("POST /s HTTP/1.1\nContent-Length: 3\n\nabc"))
	f.Add([]byte("POST /s HTTP/1.1\r\nWeird:   padded value  \r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("POST /s HTTP/1.1\r\nno-colon-here\r\n\r\n"))
	for _, tc := range FrameCases {
		f.Add([]byte(tc.Wire))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		var req Request
		if ParseRequestInto(src, &req) != nil {
			return
		}
		if !within(src, unsafe.StringData(req.Target), len(req.Target)) {
			t.Fatalf("target %q is not a view into the input", req.Target)
		}
		for i, h := range req.Headers {
			if !within(src, unsafe.StringData(h.Name), len(h.Name)) || !within(src, unsafe.StringData(h.Value), len(h.Value)) {
				t.Fatalf("header %d %q: %q is not a view into the input", i, h.Name, h.Value)
			}
		}
		if len(req.Body) > 0 && !within(src, &req.Body[0], len(req.Body)) {
			t.Fatalf("body (%d bytes) is not a view into the input", len(req.Body))
		}

		wire := formatRequestTo(nil, &req)
		var again Request
		if err := ParseRequestInto(wire, &again); err != nil {
			t.Fatalf("re-serialised request refused: %v\n%q", err, wire)
		}
		if again.Method != req.Method || again.Target != req.Target || again.Proto != req.Proto {
			t.Fatalf("request line %q %q %q came back as %q %q %q", req.Method, req.Target, req.Proto, again.Method, again.Target, again.Proto)
		}
		if len(again.Headers) != len(req.Headers) {
			t.Fatalf("%d headers came back as %d", len(req.Headers), len(again.Headers))
		}
		for i := range req.Headers {
			if again.Headers[i] != req.Headers[i] {
				t.Fatalf("header %d %+v came back as %+v", i, req.Headers[i], again.Headers[i])
			}
		}
		if !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("body %q came back as %q", req.Body, again.Body)
		}
	})
}
