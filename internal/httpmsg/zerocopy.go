package httpmsg

import (
	"bytes"
	"strconv"
	"strings"

	"repro/internal/zc"
)

// This file is the allocation-light half of the package: append-to-dst
// serializers (callers bring a pooled buffer; nothing is materialized in
// a throwaway strings.Builder) and the one request parser, zero-copy: its
// strings are views into the source frame. The classic FormatRequest and
// FormatResponse entry points delegate here, so the wire format has a
// single definition, and so does the parse: the live path runs it
// unmetered, the simulator metered (meter.go).

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

// formatRequestTo appends the full serialized request (header and body)
// to dst and returns the extended slice.
func formatRequestTo(dst []byte, r *Request) []byte {
	dst = AppendRequestHeader(dst, r, len(r.Body))
	return append(dst, r.Body...)
}

// formatResponseTo appends the full serialized response (header and
// body) to dst and returns the extended slice.
func formatResponseTo(dst []byte, r *Response) []byte {
	dst = AppendResponseHeader(dst, r, len(r.Body))
	return append(dst, r.Body...)
}

// ParseRequestInto parses src into req without copying: Method, Target,
// Proto, and header names/values are views into src (TrimSpace and the
// CR strip shrink the view, never copy), Body is a subslice, and
// req.Headers reuses its previous backing array. The parsed request is
// valid only while src is alive and unmodified — the same lifetime
// contract as the gateway's pooled frames.
func ParseRequestInto(src []byte, req *Request) error {
	return parse(src, req, true, nil)
}

// ParseHeadInto parses a request head — the request line and header block
// through the blank line, as ReadHead frames it — into req, by
// ParseRequestInto's rules and with its views. The body is not in head:
// req.Body stays nil and a declared Content-Length is the framer's to
// read.
func ParseHeadInto(head []byte, req *Request) error {
	return parse(head, req, false, nil)
}

// parse is the one request parser. With body false, src ends at the head
// and nothing after it is looked for. Each charge to a non-nil m sits
// where the parse makes the choice it charges for; a nil m costs the live
// parse one comparison per charge point.
func parse(src []byte, req *Request, body bool, m *meter) error {
	*req = Request{Headers: req.Headers[:0]}
	line, pos, err := viewLine(src, 0)
	if err != nil {
		return err
	}
	if m != nil {
		m.line(0, pos)
		m.em.ALU(len(line))
	}
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := sp1 + 1 + bytes.IndexByte(line[sp1+1:], ' ') // sp1 when there is no second space
	if sp1 < 0 || sp2 == sp1 {
		return &parseError{Offset: pos, Msg: "malformed request line"}
	}
	req.Method = zc.String(line[:sp1])
	req.Target = zc.String(line[sp1+1 : sp2])
	req.Proto = zc.String(line[sp2+1:])
	okMethod := req.Method == "POST" || req.Method == "GET" || req.Method == "PUT" ||
		req.Method == "HEAD" || req.Method == "DELETE" || req.Method == "OPTIONS"
	if m != nil {
		m.em.Branch(pcMethodOK, okMethod)
	}
	if !okMethod {
		return &parseError{Offset: 0, Msg: "unknown method " + req.Method}
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return &parseError{Offset: 0, Msg: "unsupported protocol " + req.Proto}
	}

	for {
		start := pos
		line, pos, err = viewLine(src, pos)
		if err != nil {
			return err
		}
		if m != nil {
			m.line(start, pos)
			m.em.Branch(pcHdrEnd, len(line) == 0)
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if m != nil {
			m.em.ALU(colon + 2)
			m.em.Branch(pcHdrColon, colon > 0)
		}
		var name []byte
		if colon > 0 {
			name = bytes.TrimSpace(line[:colon])
		}
		if len(name) == 0 {
			return &parseError{Offset: pos, Msg: "malformed header line"}
		}
		value := zc.String(bytes.TrimSpace(line[colon+1:]))
		req.Headers = append(req.Headers, Header{Name: zc.String(name), Value: value})
		if m != nil {
			m.em.ALU(len(name))
			m.em.Branch(pcClenFound, bytes.EqualFold(name, clenName))
		}
	}

	if !body {
		return nil
	}
	if clen := req.ContentLength(); clen >= 0 {
		if pos+clen > len(src) {
			return &parseError{Offset: pos, Msg: "truncated body"}
		}
		req.Body = src[pos : pos+clen]
		if m != nil {
			// Body bytes are touched by the copy kernels, not re-scanned
			// here; charge only the slice arithmetic.
			m.em.ALU(6)
		}
	}
	return nil
}

// viewLine returns the line starting at pos (CR/LF stripped, as a view)
// and the offset just past the LF.
func viewLine(src []byte, pos int) ([]byte, int, error) {
	i := bytes.IndexByte(src[pos:], '\n')
	if i < 0 {
		return nil, pos, &parseError{Offset: pos, Msg: "unterminated line"}
	}
	line := src[pos : pos+i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, pos + i + 1, nil
}
