package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
)

// This file is the wire layer: the one place a byte stream is cut into
// HTTP/1.1 messages. The gateway, the backend, the forwarder and the load
// client all frame through it, so a proxy and the endpoint behind it
// cannot disagree on where a message ends. Framing only finds the
// boundary (and refuses what would make the boundary ambiguous); the full
// parse of a framed request is ParseRequestInto's job, and of a head
// framed alone ParseHeadInto's — the same parser.

// maxHead bounds a request's header block, request line included.
const maxHead = 64 << 10

// maxHeaderFields bounds the field lines of one request head. The byte
// bound alone admits some 13 000 three-byte fields, and the parser's
// pooled Header scratch keeps whatever capacity the largest head it ever
// saw made it grow to.
const maxHeaderFields = 128

// FrameError is malformed or unsupported request framing: answerable with
// Status, after which the connection must close — the stream position is
// no longer trustworthy. Anything else a framer returns (io.EOF between
// messages, a net.Error from a deadline) is plain connection teardown.
type FrameError struct {
	Status int
	Msg    string
}

func (e *FrameError) Error() string { return "httpmsg: " + e.Msg }

// Response is the one answer to a framing error, the same bytes from
// every server: the status, a small JSON body, Connection: close.
func (e *FrameError) Response() []byte {
	return FormatResponse(&Response{
		Status: e.Status,
		Headers: []Header{
			{Name: "Content-Type", Value: "application/json"},
			{Name: "Connection", Value: "close"},
		},
		Body: fmt.Appendf(nil, `{"error":%q}`, e.Msg),
	})
}

var (
	clenName = []byte("Content-Length")
	tencName = []byte("Transfer-Encoding")
	connName = []byte("Connection")
)

// ReadHead frames one request head off the wire — request line and header
// block up to and including the blank line — appended into buf, whose
// possibly-grown slice is returned whether or not framing succeeded, so
// the caller keeps the capacity. It returns the body length the head
// declares (0 without a Content-Length). Lines come via ReadSlice, so a
// warm buf means no allocation; a line longer than the reader's window is
// continued chunk by chunk, with the 64 KiB bound checked per chunk.
// Blank lines before the request line are dropped; io.EOF between
// messages is a clean close and comes back bare.
//
// Framing is strict where leniency would let two parsers disagree on
// where a message ends (request smuggling once forwarding is on): any
// Transfer-Encoding is refused with 501 — messages are framed by
// Content-Length only — repeated Content-Length headers must agree, the
// value must be 1*DIGIT, and the two spellings a lenient peer reads as a
// different header (obs-fold continuation, whitespace before the colon:
// RFC 9112 §5.1, §5.2) are refused outright. More than maxHeaderFields
// field lines are refused with 431.
func ReadHead(br *bufio.Reader, buf []byte) ([]byte, int, error) {
	buf = buf[:0]
	clen, haveClen, fields := 0, false, 0
	for {
		lineStart := len(buf)
		for {
			chunk, err := br.ReadSlice('\n')
			buf = append(buf, chunk...)
			if len(buf) > maxHead {
				return buf, 0, &FrameError{400, "header block too large"}
			}
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err != io.EOF {
				return buf, 0, err
			}
			if len(buf) == 0 {
				return buf, 0, io.EOF
			}
			return buf, 0, &FrameError{400, "truncated request"}
		}
		line := bytes.TrimRight(buf[lineStart:], "\r\n")
		if lineStart == 0 {
			if len(line) == 0 {
				buf = buf[:0]
			}
			continue // the request line is the parser's to judge
		}
		if len(line) == 0 {
			return buf, clen, nil
		}
		if fields++; fields > maxHeaderFields {
			return buf, 0, &FrameError{431, "too many header fields"}
		}
		if line[0] == ' ' || line[0] == '\t' {
			return buf, 0, &FrameError{400, "obsolete line folding"}
		}
		i := bytes.IndexByte(line, ':')
		if i <= 0 {
			continue // not a header field; the parser answers it
		}
		if line[i-1] == ' ' || line[i-1] == '\t' {
			return buf, 0, &FrameError{400, "whitespace before colon"}
		}
		// TrimSpace is ParseRequestInto's normalisation: a name the parser
		// would read as Content-Length is one the framer acts on.
		switch name := bytes.TrimSpace(line[:i]); {
		case bytes.EqualFold(name, clenName):
			n, ok := parseClen(bytes.TrimSpace(line[i+1:]))
			if !ok {
				return buf, 0, &FrameError{400, "bad Content-Length"}
			}
			if haveClen && n != clen {
				return buf, 0, &FrameError{400, "conflicting Content-Length"}
			}
			clen, haveClen = n, true
		case bytes.EqualFold(name, tencName):
			return buf, 0, &FrameError{501, "Transfer-Encoding not supported"}
		}
	}
}

// ReadRequest frames one whole request: ReadHead, then exactly
// Content-Length body bytes appended into the same buffer (the
// connection's frame). As with ReadHead the grown slice comes back on
// every path. A body longer than maxBody is refused before a byte of it
// is read.
func ReadRequest(br *bufio.Reader, maxBody int, buf []byte) ([]byte, error) {
	buf, clen, err := ReadHead(br, buf)
	if err != nil {
		return buf, err
	}
	if clen > maxBody {
		return buf, &FrameError{400, "body exceeds limit"}
	}
	if clen > 0 {
		hlen := len(buf)
		buf = slices.Grow(buf, clen)[:hlen+clen]
		if _, err := io.ReadFull(br, buf[hlen:]); err != nil {
			return buf[:hlen], TruncatedBody(err)
		}
	}
	return buf, nil
}

// TruncatedBody maps the error of a short body read: a stream that ended
// inside the body is a FrameError; anything else (a deadline expiry
// mid-body stays a net.Error) passes through.
func TruncatedBody(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return &FrameError{400, "truncated body"}
	}
	return err
}

// maxResponseBody bounds the Content-Length ReadResponseHead accepts:
// both of its callers size the body's buffer from that number, and it
// comes from the peer. 8 MiB is the bound the /stats scrapers already
// read under.
const maxResponseBody = 8 << 20

// ResponseHead is what framing a response needs from its head.
type ResponseHead struct {
	Status        int
	ContentLength int  // body bytes that follow (0 when undeclared)
	KeepAlive     bool // no "Connection: close": the socket may be reused
	Bytes         int  // wire size of the head
}

// ReadResponseHead reads a status line and header block off the wire.
// Each header field is handed to field (when non-nil) as trimmed views
// into the reader's window, which die at the next read — copy what must
// outlive the call. The body is the caller's to read: exactly
// ContentLength bytes, into a buffer whose lifetime the caller picks.
// Content-Length must be 1*DIGIT and at most maxResponseBody; a line
// longer than the reader's window is an error, not a reason to buffer.
func ReadResponseHead(br *bufio.Reader, field func(name, value []byte)) (ResponseHead, error) {
	h := ResponseHead{KeepAlive: true}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return h, responseLineErr(err)
	}
	h.Bytes = len(line)
	sl := bytes.TrimRight(line, "\r\n")
	proto, rest, _ := bytes.Cut(sl, []byte(" "))
	code, _, _ := bytes.Cut(rest, []byte(" "))
	if !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return h, fmt.Errorf("httpmsg: malformed status line %q", sl)
	}
	var ok bool
	if h.Status, ok = parseClen(code); !ok {
		return h, fmt.Errorf("httpmsg: bad status %q", code)
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return h, responseLineErr(err)
		}
		h.Bytes += len(line)
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return h, nil
		}
		i := bytes.IndexByte(line, ':')
		if i <= 0 {
			continue
		}
		name, val := bytes.TrimSpace(line[:i]), bytes.TrimSpace(line[i+1:])
		switch {
		case bytes.EqualFold(name, clenName):
			if h.ContentLength, ok = parseClen(val); !ok {
				return h, fmt.Errorf("httpmsg: bad Content-Length %q", val)
			}
			if h.ContentLength > maxResponseBody {
				return h, fmt.Errorf("httpmsg: response body of %d bytes exceeds the %d-byte bound", h.ContentLength, maxResponseBody)
			}
		case bytes.EqualFold(name, tencName):
			return h, errors.New("httpmsg: Transfer-Encoding response not supported")
		case bytes.EqualFold(name, connName):
			if bytes.EqualFold(val, []byte("close")) {
				h.KeepAlive = false
			}
		}
		if field != nil {
			field(name, val)
		}
	}
}

// Writev sends a message kept as two separately-owned segments, head and
// body, in one vectored write. Each connection that writes such messages
// owns one Writev for its life: net.Buffers.WriteTo consumes its receiver
// and both escape into the socket call, so a fresh pair per message costs
// two allocations. Write clears the segments before returning, so an idle
// connection never pins the buffers of the message it last wrote.
type Writev struct {
	seg [2][]byte
	nb  net.Buffers
}

// Write writes head then body (a plain write when body is empty) and
// returns the bytes written.
func (v *Writev) Write(w io.Writer, head, body []byte) (int64, error) {
	if len(body) == 0 {
		n, err := w.Write(head)
		return int64(n), err
	}
	v.seg = [2][]byte{head, body}
	v.nb = v.seg[:]
	n, err := v.nb.WriteTo(w)
	v.seg = [2][]byte{} // nb aliases seg, so this drops every reference
	return n, err
}

// responseLineErr names the one ReadSlice error that is about the
// message rather than the connection.
func responseLineErr(err error) error {
	if err == bufio.ErrBufferFull {
		return errors.New("httpmsg: response header line too long")
	}
	return err
}

// parseClen is the allocation-free parse of a Content-Length value (and
// of a status code): 1*DIGIT, nothing else — no sign, no whitespace.
func parseClen(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<50 {
			return 0, false
		}
	}
	return n, true
}
