package httpmsg

import (
	"bytes"
	"strconv"
	"strings"

	"repro/internal/zc"
)

// This file is the allocation-light half of the package: append-to-dst
// serializers (callers bring a pooled buffer; nothing is materialized in
// a throwaway strings.Builder) and a zero-copy request parser whose
// strings are views into the source frame. The classic FormatRequest and
// FormatResponse entry points delegate here, so the wire format has a
// single definition; ParseRequest keeps its own copying implementation
// because the instrumented parse mirrors it micro-op for micro-op.

// AppendRequestHeader appends the request line and headers (terminated
// by the blank line) to dst and returns the extended slice. A
// Content-Length header for bodyLen is added only when the request does
// not already carry one and bodyLen > 0, matching FormatRequest.
func AppendRequestHeader(dst []byte, r *Request, bodyLen int) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Target...)
	dst = append(dst, ' ')
	dst = append(dst, r.Proto...)
	dst = append(dst, '\r', '\n')
	hasClen := false
	for _, h := range r.Headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ':', ' ')
		dst = append(dst, h.Value...)
		dst = append(dst, '\r', '\n')
		if strings.EqualFold(h.Name, "Content-Length") {
			hasClen = true
		}
	}
	if !hasClen && bodyLen > 0 {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(bodyLen), 10)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, '\r', '\n')
}

// AppendResponseHeader appends the status line and headers (terminated
// by the blank line) to dst and returns the extended slice. The
// Content-Length for bodyLen is always written last, matching
// FormatResponse.
func AppendResponseHeader(dst []byte, r *Response, bodyLen int) []byte {
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, '\r', '\n')
	for _, h := range r.Headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ':', ' ')
		dst = append(dst, h.Value...)
		dst = append(dst, '\r', '\n')
	}
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	return append(dst, '\r', '\n', '\r', '\n')
}

// FormatRequestTo appends the full serialized request (header and body)
// to dst and returns the extended slice.
func FormatRequestTo(dst []byte, r *Request) []byte {
	dst = AppendRequestHeader(dst, r, len(r.Body))
	return append(dst, r.Body...)
}

// FormatResponseTo appends the full serialized response (header and
// body) to dst and returns the extended slice.
func FormatResponseTo(dst []byte, r *Response) []byte {
	dst = AppendResponseHeader(dst, r, len(r.Body))
	return append(dst, r.Body...)
}

// ParseRequestInto parses src into req without copying: Method, Target,
// Proto, and header names/values are views into src (TrimSpace and the
// CR strip shrink the view, never copy), Body is a subslice, and
// req.Headers reuses its previous backing array. The parsed request is
// valid only while src is alive and unmodified — the same lifetime
// contract as the gateway's pooled frames. Accept/reject decisions match
// ParseRequest exactly.
func ParseRequestInto(src []byte, req *Request) error {
	hdrs := req.Headers[:0]
	*req = Request{Headers: hdrs}
	pos := 0

	line, n, err := viewLine(src, pos)
	if err != nil {
		return err
	}
	pos = n
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		if i := bytes.IndexByte(line[sp1+1:], ' '); i >= 0 {
			sp2 = sp1 + 1 + i
		}
	}
	if sp1 < 0 || sp2 < 0 {
		return &ParseError{Offset: pos, Msg: "malformed request line"}
	}
	req.Method = zc.String(line[:sp1])
	req.Target = zc.String(line[sp1+1 : sp2])
	req.Proto = zc.String(line[sp2+1:])
	okMethod := req.Method == "POST" || req.Method == "GET" || req.Method == "PUT" ||
		req.Method == "HEAD" || req.Method == "DELETE" || req.Method == "OPTIONS"
	if !okMethod {
		return &ParseError{Offset: 0, Msg: "unknown method " + req.Method}
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return &ParseError{Offset: 0, Msg: "unsupported protocol " + req.Proto}
	}

	for {
		line, n, err = viewLine(src, pos)
		if err != nil {
			return err
		}
		pos = n
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		var name []byte
		if colon > 0 {
			name = bytes.TrimSpace(line[:colon])
		}
		if len(name) == 0 {
			return &ParseError{Offset: pos, Msg: "malformed header line"}
		}
		value := zc.String(bytes.TrimSpace(line[colon+1:]))
		req.Headers = append(req.Headers, Header{Name: zc.String(name), Value: value})
	}

	if clen := req.ContentLength(); clen >= 0 {
		if pos+clen > len(src) {
			return &ParseError{Offset: pos, Msg: "truncated body"}
		}
		req.Body = src[pos : pos+clen]
	}
	return nil
}

// viewLine returns the line starting at pos (CR/LF stripped, as a view)
// and the offset just past the LF.
func viewLine(src []byte, pos int) ([]byte, int, error) {
	i := bytes.IndexByte(src[pos:], '\n')
	if i < 0 {
		return nil, pos, &ParseError{Offset: pos, Msg: "unterminated line"}
	}
	line := src[pos : pos+i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, pos + i + 1, nil
}
