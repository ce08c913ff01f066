// Package httpmsg parses and serializes HTTP/1.1 messages — the transport
// the paper's XML server application speaks: "processing incoming XML
// request through HTTP POST messages" (Section 3.2.1). The base use case
// (FR) is plain HTTP proxying; CBR and SV additionally process the POST
// body through the XML stack.
//
// There is one request parser, ParseRequestInto: the gateway and the
// backend run it as it is, the simulator metered into a trace.Emitter
// (ParseRequestMetered), so both decide alike on the same bytes.
package httpmsg

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/perf/trace"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Target  string
	Proto   string
	Headers []Header
	Body    []byte
}

// Header is one header field.
type Header struct {
	Name  string
	Value string
}

// Get returns a header value by case-insensitive name.
func (r *Request) Get(name string) (string, bool) {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// ContentLength returns the declared body length (-1 if absent/invalid).
func (r *Request) ContentLength() int {
	v, ok := r.Get("Content-Length")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// parseError reports a malformed message.
type parseError struct {
	Offset int
	Msg    string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("httpmsg: offset %d: %s", e.Offset, e.Msg)
}

// FormatRequest serializes a request into a fresh buffer. Hot paths use
// formatRequestTo with a pooled dst instead.
func FormatRequest(r *Request) []byte {
	return formatRequestTo(nil, r)
}

// Response is a minimal HTTP response.
type Response struct {
	Status  int
	Reason  string
	Headers []Header
	Body    []byte
}

// FormatResponse serializes a response into a fresh buffer. Hot paths
// use formatResponseTo with a pooled dst instead.
func FormatResponse(r *Response) []byte {
	return formatResponseTo(nil, r)
}

// JSONResponse serializes a response whose body is v as indented JSON —
// the control-plane answer (/stats, /traces, fault scripting, 404s) of
// both the gateway and the backend.
func JSONResponse(status int, v any) []byte {
	body, _ := json.MarshalIndent(v, "", "  ") // the callers' own structs and maps: cannot fail
	return FormatResponse(&Response{
		Status:  status,
		Headers: []Header{{Name: "Content-Type", Value: "application/json"}},
		Body:    body,
	})
}

// StatusText maps the status codes the proxy uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 422:
		return "Unprocessable Entity"
	case 431:
		return "Request Header Fields Too Large"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	}
	return "Unknown"
}

// LastParam reads the control planes' one query parameter, ?last=N — the
// newest N entries of a ring, all of them when absent or 0 — off a raw
// query string. Both ends' /traces parse it here, so a
// value one node refuses is refused by all.
func LastParam(query string) (int, error) {
	vals, err := url.ParseQuery(query)
	if err != nil {
		return 0, fmt.Errorf("bad query: %v", err)
	}
	raw := strings.TrimSpace(vals.Get("last"))
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad last=%q, want a non-negative integer", raw)
	}
	return n, nil
}

// RewriteTarget adjusts the request target for proxy forwarding: the proxy
// strips the scheme/authority and forwards the path, emitting the string
// work it implies.
func RewriteTarget(req *Request, em trace.Emitter) string {
	t := req.Target
	em.ALU(len(t) / 2)
	if i := strings.Index(t, "://"); i >= 0 {
		rest := t[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return rest[j:]
		}
		return "/"
	}
	return t
}
