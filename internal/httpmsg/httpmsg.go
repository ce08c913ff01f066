// Package httpmsg parses and serializes HTTP/1.1 messages — the transport
// the paper's XML server application speaks: "processing incoming XML
// request through HTTP POST messages" (Section 3.2.1). The base use case
// (FR) is plain HTTP proxying; CBR and SV additionally process the POST
// body through the XML stack.
//
// Like the rest of the workload code, parsing is dual-use: plain or
// instrumented via a trace.Emitter.
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

var (
	httpCode     = trace.NewCodeRegion(2048)
	pcLineScan   = httpCode.Site()
	pcHdrEnd     = httpCode.Site()
	pcHdrColon   = httpCode.Site()
	pcMethodOK   = httpCode.Site()
	pcClenFound  = httpCode.Site()
	pcHdrCaseCmp = httpCode.Site()
)

// parser carries instrumentation state through a parse.
type parser struct {
	src  []byte
	pos  int
	em   trace.Emitter
	base uint64
}

// ParseRequest parses an HTTP/1.1 request without instrumentation.
func ParseRequest(src []byte) (*Request, error) {
	return ParseRequestInstrumented(src, trace.Nop{}, 0)
}

// ParseRequestInstrumented parses while emitting the equivalent micro-op
// stream; base is the synthetic address of src.
func ParseRequestInstrumented(src []byte, em trace.Emitter, base uint64) (*Request, error) {
	p := &parser{src: src, em: em, base: base}
	req := &Request{}

	line, err := p.readLine()
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	p.em.ALU(len(line))
	if len(parts) != 3 {
		return nil, &parseError{Offset: p.pos, Msg: "malformed request line"}
	}
	req.Method, req.Target, req.Proto = parts[0], parts[1], parts[2]
	okMethod := req.Method == "POST" || req.Method == "GET" || req.Method == "PUT" ||
		req.Method == "HEAD" || req.Method == "DELETE" || req.Method == "OPTIONS"
	p.em.Branch(pcMethodOK, okMethod)
	if !okMethod {
		return nil, &parseError{Offset: 0, Msg: "unknown method " + req.Method}
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return nil, &parseError{Offset: 0, Msg: "unsupported protocol " + req.Proto}
	}

	for {
		line, err := p.readLine()
		if err != nil {
			return nil, err
		}
		end := line == ""
		p.em.Branch(pcHdrEnd, end)
		if end {
			break
		}
		colon := strings.IndexByte(line, ':')
		p.em.ALU(colon + 2)
		p.em.Branch(pcHdrColon, colon > 0)
		if colon <= 0 {
			return nil, &parseError{Offset: p.pos, Msg: "malformed header line"}
		}
		name := strings.TrimSpace(line[:colon])
		if name == "" {
			return nil, &parseError{Offset: p.pos, Msg: "malformed header line"}
		}
		value := strings.TrimSpace(line[colon+1:])
		req.Headers = append(req.Headers, Header{Name: name, Value: value})
		isClen := strings.EqualFold(name, "Content-Length")
		p.em.ALU(len(name))
		p.em.Branch(pcClenFound, isClen)
	}

	if clen := req.ContentLength(); clen >= 0 {
		if p.pos+clen > len(src) {
			return nil, &parseError{Offset: p.pos, Msg: "truncated body"}
		}
		req.Body = src[p.pos : p.pos+clen]
		// Body bytes are touched by the copy kernels, not re-scanned
		// here; charge only the slice arithmetic.
		p.em.ALU(6)
		p.pos += clen
	}
	return req, nil
}

// readLine scans to CRLF (or LF), emitting the word-at-a-time search.
func (p *parser) readLine() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		if p.src[p.pos] == '\n' {
			line := string(p.src[start:p.pos])
			words := (p.pos - start + trace.WordBytes) / trace.WordBytes
			for w := 0; w < words; w++ {
				p.em.Load(p.base+uint64(start+w*trace.WordBytes), 1)
				p.em.ALU(2)
				p.em.Branch(pcLineScan, w+1 < words)
			}
			p.pos++
			return strings.TrimSuffix(line, "\r"), nil
		}
		p.pos++
	}
	return "", &parseError{Offset: start, Msg: "unterminated line"}
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
