package httpmsg

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/perf/trace"
)

const sampleReq = "POST /service/CBR HTTP/1.1\r\n" +
	"Host: aon-gw.example.com\r\n" +
	"Content-Type: text/xml\r\n" +
	"Content-Length: 11\r\n" +
	"\r\n" +
	"<order/>abc"

func TestParseRequest(t *testing.T) {
	req := &Request{}
	if err := ParseRequestInto([]byte(sampleReq), req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Target != "/service/CBR" || req.Proto != "HTTP/1.1" {
		t.Fatalf("request line = %s %s %s", req.Method, req.Target, req.Proto)
	}
	if v, ok := req.Get("host"); !ok || v != "aon-gw.example.com" {
		t.Fatalf("case-insensitive header lookup: %q %v", v, ok)
	}
	if req.ContentLength() != 11 {
		t.Fatalf("content length = %d", req.ContentLength())
	}
	if string(req.Body) != "<order/>abc" {
		t.Fatalf("body = %q", req.Body)
	}
}

func TestParseLFOnly(t *testing.T) {
	req := &Request{}
	if err := ParseRequestInto([]byte("GET /x HTTP/1.0\nHost: h\n\n"), req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.ContentLength() != -1 {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"POST\r\n\r\n",
		"BREW /pot HTTP/1.1\r\n\r\n",
		"POST / SPDY/3\r\n\r\n",
		"POST / HTTP/1.1\r\nBadHeader\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
		"POST / HTTP/1.1\r\nHost: h",
	}
	var req Request
	for _, src := range bad {
		if err := ParseRequestInto([]byte(src), &req); err == nil {
			t.Errorf("ParseRequestInto(%q) succeeded", src)
		}
	}
	err := ParseRequestInto([]byte("POST\r\n\r\n"), &req)
	if _, ok := err.(*parseError); !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(err.Error(), "httpmsg") {
		t.Fatalf("error %q lacks package prefix", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Target: "/svc",
		Proto:  "HTTP/1.1",
		Headers: []Header{
			{Name: "Host", Value: "h"},
			{Name: "X-Test", Value: "1"},
		},
		Body: []byte("hello body"),
	}
	raw := FormatRequest(req)
	back := &Request{}
	if err := ParseRequestInto(raw, back); err != nil {
		t.Fatal(err)
	}
	if back.Method != req.Method || back.Target != req.Target {
		t.Fatalf("round trip mangled request line: %+v", back)
	}
	if !bytes.Equal(back.Body, req.Body) {
		t.Fatalf("round trip body = %q", back.Body)
	}
	if back.ContentLength() != len(req.Body) {
		t.Fatal("Content-Length not synthesized")
	}
}

func TestFormatPreservesExplicitContentLength(t *testing.T) {
	req := &Request{
		Method: "POST", Target: "/", Proto: "HTTP/1.1",
		Headers: []Header{{Name: "Content-Length", Value: "3"}},
		Body:    []byte("abc"),
	}
	raw := FormatRequest(req)
	if bytes.Count(raw, []byte("Content-Length")) != 1 {
		t.Fatalf("duplicate Content-Length in %q", raw)
	}
}

func TestFormatResponse(t *testing.T) {
	r := &Response{Status: 200, Body: []byte("ok")}
	out := string(FormatResponse(r))
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("response = %q", out)
	}
	if !strings.Contains(out, "Content-Length: 2") {
		t.Fatal("missing content length")
	}
	for code, want := range map[int]string{400: "Bad Request", 404: "Not Found", 422: "Unprocessable Entity", 501: "Not Implemented", 502: "Bad Gateway", 999: "Unknown"} {
		if StatusText(code) != want {
			t.Errorf("StatusText(%d) = %q", code, StatusText(code))
		}
	}
}

func TestRewriteTarget(t *testing.T) {
	cases := map[string]string{
		"http://host.example/path/x": "/path/x",
		"http://host.example":        "/",
		"/already/relative":          "/already/relative",
	}
	for in, want := range cases {
		req := &Request{Target: in}
		if got := RewriteTarget(req, trace.Nop{}); got != want {
			t.Errorf("RewriteTarget(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBadContentLength(t *testing.T) {
	req := &Request{}
	if err := ParseRequestInto([]byte("POST / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n"), req); err != nil {
		t.Fatal(err)
	}
	if req.ContentLength() != -1 {
		t.Fatal("invalid Content-Length not rejected")
	}
}
