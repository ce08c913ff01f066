package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"repro/internal/dtrace"
)

// frameMaxBody is the body bound the framing table is written against
// (the gateway's).
const frameMaxBody = 1 << 20

// FrameCase is one row of the request-framing table: the bytes a client
// sends, how many requests are framed off them, and how the stream ends.
// The same rows run against ReadRequest here and, over loopback, against
// every server that frames with it (wire_consumers_test.go).
type FrameCase struct {
	Name   string
	Wire   string
	Frames int    // requests accepted before the stream ends
	Status int    // the FrameError that ends it; 0 = clean EOF
	Msg    string // FrameError.Msg
	// Stall ends the stream with a read deadline instead of EOF; only a
	// reader can stage that, so loopback drivers skip these rows.
	Stall bool
}

const post = "POST /service/FR HTTP/1.1\r\nHost: aon\r\n"

// FrameCases is the one framing table.
var FrameCases = []FrameCase{
	{Name: "keep-alive-pair", Wire: post + "Content-Length: 2\r\n\r\nab" + post + "Content-Length: 3\r\n\r\ncde", Frames: 2},
	{Name: "no-body", Wire: post + "\r\n", Frames: 1},
	{Name: "leading-blank-lines", Wire: "\r\n\r\n\n" + post + "Content-Length: 2\r\n\r\nab", Frames: 1},
	{Name: "lf-only", Wire: "POST /service/FR HTTP/1.1\nContent-Length: 2\n\nab", Frames: 1},
	{Name: "oversized-line", Wire: post + "X-Pad: " + strings.Repeat("a", maxHead), Status: 400, Msg: "header block too large"},
	{Name: "oversized-block", Wire: post + strings.Repeat("X-Pad: "+strings.Repeat("a", 1000)+"\r\n", 70) + "\r\n", Status: 400, Msg: "header block too large"},
	{Name: "header-fields-at-bound", Wire: post + strings.Repeat("a:\r\n", maxHeaderFields-1) + "\r\n", Frames: 1},
	{Name: "header-fields-over-bound", Wire: post + strings.Repeat("a:\r\n", maxHeaderFields) + "\r\n", Status: 431, Msg: "too many header fields"},
	{Name: "truncated-head", Wire: post, Status: 400, Msg: "truncated request"},
	{Name: "truncated-body", Wire: post + "Content-Length: 10\r\n\r\nabc", Status: 400, Msg: "truncated body"},
	{Name: "transfer-encoding", Wire: post + "Transfer-Encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\n", Status: 501, Msg: "Transfer-Encoding not supported"},
	{Name: "transfer-encoding-with-length", Wire: post + "Content-Length: 2\r\ntransfer-encoding: identity\r\n\r\nab", Status: 501, Msg: "Transfer-Encoding not supported"},
	{Name: "content-length-twice-equal", Wire: post + "Content-Length: 2\r\ncontent-length: 2\r\n\r\nab", Frames: 1},
	{Name: "content-length-twice-conflicting", Wire: post + "Content-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", Status: 400, Msg: "conflicting Content-Length"},
	{Name: "second-request-refused", Wire: post + "Content-Length: 2\r\n\r\nab" + post + "Content-Length: 1\r\nContent-Length: 2\r\n\r\nab", Frames: 1, Status: 400, Msg: "conflicting Content-Length"},
	{Name: "obs-fold", Wire: post + "X-A: b\r\n Content-Length: 5\r\n\r\nabcde", Status: 400, Msg: "obsolete line folding"},
	{Name: "obs-fold-tab", Wire: post + "X-A: b\r\n\tc\r\n\r\n", Status: 400, Msg: "obsolete line folding"},
	{Name: "whitespace-before-colon", Wire: post + "Content-Length : 5\r\n\r\nabcde", Status: 400, Msg: "whitespace before colon"},
	{Name: "content-length-signed", Wire: post + "Content-Length: +5\r\n\r\nabcde", Status: 400, Msg: "bad Content-Length"},
	{Name: "content-length-negative", Wire: post + "Content-Length: -1\r\n\r\n", Status: 400, Msg: "bad Content-Length"},
	{Name: "content-length-garbage", Wire: post + "Content-Length: nope\r\n\r\n", Status: 400, Msg: "bad Content-Length"},
	{Name: "content-length-empty", Wire: post + "Content-Length:\r\n\r\n", Status: 400, Msg: "bad Content-Length"},
	{Name: "body-exceeds-limit", Wire: post + "Content-Length: 1048577\r\n\r\nab", Status: 400, Msg: "body exceeds limit"},
	{Name: "deadline-mid-head", Wire: post + "Content-Le", Stall: true},
	{Name: "deadline-mid-body", Wire: post + "Content-Length: 10\r\n\r\nabc", Stall: true},
}

// stallReader serves its bytes, then a read deadline expiry.
type stallReader struct{ r io.Reader }

func (s stallReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		err = os.ErrDeadlineExceeded
	}
	return n, err
}

// frameAll runs ReadRequest over r until the stream ends, checking the
// returned-buffer contract (the grown slice comes back on every path) and
// that each accepted frame is one the parser takes. It returns the frames
// and the error that ended the stream.
func frameAll(t testing.TB, r io.Reader, window int) (frames [][]byte, end error) {
	br := bufio.NewReaderSize(r, window)
	buf := make([]byte, 0, 16)
	for {
		was := cap(buf)
		out, err := ReadRequest(br, frameMaxBody, buf)
		if cap(out) < was {
			t.Fatalf("returned buffer lost capacity: %d -> %d (err=%v)", was, cap(out), err)
		}
		if len(out) > maxHead+window+frameMaxBody {
			t.Fatalf("framer holds %d bytes", len(out))
		}
		buf = out
		if err != nil {
			return frames, err
		}
		frames = append(frames, bytes.Clone(out))
	}
}

// TestFrameTable runs the framing table against ReadRequest at a reader
// window smaller than any line and at the servers' 32 KiB.
func TestFrameTable(t *testing.T) {
	for _, tc := range FrameCases {
		for _, window := range []int{64, 32 << 10} {
			var r io.Reader = strings.NewReader(tc.Wire)
			if tc.Stall {
				r = stallReader{r}
			}
			frames, err := frameAll(t, r, window)
			if len(frames) != tc.Frames {
				t.Errorf("%s/%d: %d frames, want %d", tc.Name, window, len(frames), tc.Frames)
			}
			for _, f := range frames {
				var req Request
				if perr := ParseRequestInto(f, &req); perr != nil {
					t.Errorf("%s/%d: accepted frame does not parse: %v", tc.Name, window, perr)
				}
			}
			var fe *FrameError
			var ne net.Error
			switch {
			case tc.Stall:
				if !errors.As(err, &ne) || !ne.Timeout() || errors.As(err, &fe) {
					t.Errorf("%s/%d: err=%v, want the deadline's net.Error", tc.Name, window, err)
				}
			case tc.Status == 0:
				if err != io.EOF {
					t.Errorf("%s/%d: err=%v, want bare io.EOF", tc.Name, window, err)
				}
			case !errors.As(err, &fe) || fe.Status != tc.Status || fe.Msg != tc.Msg:
				t.Errorf("%s/%d: err=%v, want %d %q", tc.Name, window, err, tc.Status, tc.Msg)
			}
		}
	}
}

// endless serves one byte forever and counts what was taken.
type endless struct {
	b     byte
	taken int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.b
	}
	e.taken += len(p)
	return len(p), nil
}

// TestNewlinelessLineIsBounded: a client streaming a line that never ends
// is refused once the header bound is crossed — the framer never holds
// more than the bound plus one reader window, however much is offered.
func TestNewlinelessLineIsBounded(t *testing.T) {
	const window = 4 << 10
	src := &endless{b: 'A'}
	buf, err := ReadRequest(bufio.NewReaderSize(src, window), frameMaxBody, nil)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Status != 400 || fe.Msg != "header block too large" {
		t.Fatalf("err=%v, want 400 header block too large", err)
	}
	if len(buf) > maxHead+window {
		t.Fatalf("framer held %d bytes, bound is %d", len(buf), maxHead+window)
	}
	if src.taken > maxHead+2*window {
		t.Fatalf("framer took %d bytes off the wire before refusing", src.taken)
	}
}

// TestFramerAllocs pins the steady state: framing into a warm buffer
// allocates nothing, head-only or whole request.
func TestFramerAllocs(t *testing.T) {
	wire := []byte(post + "X-AON-Trace: 0123456789abcdef-0123456789abcdef\r\nContent-Length: 1024\r\n\r\n" + strings.Repeat("x", 1024))
	src := bytes.NewReader(wire)
	br := bufio.NewReaderSize(src, 32<<10)
	buf := make([]byte, 0, 4<<10)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		br.Reset(src)
		var err error
		if buf, err = ReadRequest(br, frameMaxBody, buf); err != nil || len(buf) != len(wire) {
			t.Fatalf("len=%d err=%v", len(buf), err)
		}
	}); n != 0 {
		t.Errorf("ReadRequest: %v allocs/op, want 0", n)
	}
	var req Request
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		br.Reset(src)
		var clen int
		var err error
		if buf, clen, err = ReadHead(br, buf); err != nil || clen != 1024 {
			t.Fatalf("clen=%d err=%v", clen, err)
		}
		if err := ParseHeadInto(buf, &req); err != nil {
			t.Fatal(err)
		}
		if v, _ := req.Get(dtrace.Header); len(v) != 33 {
			t.Fatalf("trace header = %q", v)
		}
	}); n != 0 {
		t.Errorf("ReadHead+ParseHeadInto+Get: %v allocs/op, want 0", n)
	}
}

// TestParseHeadInto: a framed head parses by ParseRequestInto's rules —
// the first of a repeated header wins, values are trimmed, the request
// line is not a header — and leaves the body, whatever Content-Length
// says, to the framer; a head the gateway's parser refuses is refused.
func TestParseHeadInto(t *testing.T) {
	const head = "POST /x: HTTP/1.1\r\nHost: a\r\nX-Aon-Trace:  t1 \r\nx-aon-trace: t2\r\nContent-Length: 5\r\n\r\n"
	var req Request
	if err := ParseHeadInto([]byte(head), &req); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		ok         bool
	}{
		{"X-AON-Trace", "t1", true},
		{"host", "a", true},
		{"POST /x", "", false},
		{"Absent", "", false},
	} {
		if v, ok := req.Get(tc.name); v != tc.want || ok != tc.ok {
			t.Errorf("Get(%q) = %q, %v; want %q, %v", tc.name, v, ok, tc.want, tc.ok)
		}
	}
	if req.Method != "POST" || req.Target != "/x:" || req.Body != nil || req.ContentLength() != 5 {
		t.Errorf("request %q %q, body %q, Content-Length %d", req.Method, req.Target, req.Body, req.ContentLength())
	}
	for _, bad := range []string{
		"BREW /x HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /x\r\nHost: a\r\n\r\n",
		"POST /x HTTP/1.1\r\nno-colon\r\n\r\n",
		"POST /x SPDY/3\r\nHost: a\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\n", // no blank line: not a framed head
	} {
		if err := ParseHeadInto([]byte(bad), &req); err == nil {
			t.Errorf("ParseHeadInto(%q) accepted", bad)
		}
	}
}

// ResponseCase is one row of the response-framing table, run against
// ReadResponseHead here and through the forwarder and the load client in
// wire_consumers_test.go.
type ResponseCase struct {
	Name      string
	Wire      string
	Err       string // substring of the error; "" = accepted
	Status    int
	Body      string
	KeepAlive bool
}

// ResponseCases is the one response table.
var ResponseCases = []ResponseCase{
	{Name: "ok", Wire: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\nhi", Status: 200, Body: "hi", KeepAlive: true},
	{Name: "no-reason-no-body", Wire: "HTTP/1.0 204\r\n\r\n", Status: 204, KeepAlive: true},
	{Name: "connection-close", Wire: "HTTP/1.1 502 Bad Gateway\r\nconnection: Close\r\nContent-Length: 0\r\n\r\n", Status: 502},
	{Name: "garbage-status-line", Wire: "garbage\r\n\r\n", Err: "malformed status line"},
	{Name: "bad-status", Wire: "HTTP/1.1 2x0 OK\r\n\r\n", Err: "bad status"},
	{Name: "content-length-garbage", Wire: "HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n", Err: "bad Content-Length"},
	{Name: "content-length-negative", Wire: "HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nhi", Err: "bad Content-Length"},
	{Name: "content-length-signed", Wire: "HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nhi", Err: "bad Content-Length"},
	{Name: "content-length-over-bound", Wire: "HTTP/1.1 200 OK\r\nContent-Length: 8388609\r\n\r\nhi", Err: "exceeds the 8388608-byte bound"},
	{Name: "content-length-hostile", Wire: "HTTP/1.1 200 OK\r\nContent-Length: 1125899906842624\r\n\r\n", Err: "exceeds the 8388608-byte bound"}, // 1<<50: make() would panic
	{Name: "transfer-encoding", Wire: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n", Err: "Transfer-Encoding"},
	{Name: "header-line-too-long", Wire: "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", 40<<10) + "\r\n\r\n", Err: "header line too long"},
	{Name: "truncated-head", Wire: "HTTP/1.1 200 OK\r\nContent-Le", Err: "EOF"},
}

func TestResponseTable(t *testing.T) {
	for _, tc := range ResponseCases {
		br := bufio.NewReaderSize(strings.NewReader(tc.Wire), 32<<10)
		var fields []string
		h, err := ReadResponseHead(br, func(name, val []byte) {
			fields = append(fields, string(name)+"="+string(val))
		})
		if tc.Err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.Err) {
				t.Errorf("%s: err=%v, want %q", tc.Name, err, tc.Err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.Name, err)
			continue
		}
		body, _ := io.ReadAll(br)
		if h.Status != tc.Status || h.KeepAlive != tc.KeepAlive || h.ContentLength != len(tc.Body) ||
			string(body) != tc.Body || h.Bytes != len(tc.Wire)-len(tc.Body) {
			t.Errorf("%s: head=%+v body=%q", tc.Name, h, body)
		}
		if tc.Name == "ok" && strings.Join(fields, ",") != "Content-Type=application/json,Content-Length=2" {
			t.Errorf("%s: fields=%q", tc.Name, fields)
		}
	}
}

// TestJSONResponseGolden pins the bytes both control planes put on the
// wire: the goldens are the parent commit's gateway.jsonResponse,
// upstream.jsonResponse and gateway.formatError output for the same values.
func TestJSONResponseGolden(t *testing.T) {
	got := JSONResponse(404, map[string]string{"error": "not found"})
	want := "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 26\r\n\r\n{\n  \"error\": \"not found\"\n}"
	if string(got) != want {
		t.Errorf("404:\n got %q\nwant %q", got, want)
	}
	got = (&FrameError{400, "bad Content-Length"}).Response() // parent: gateway.formatError(400, msg, true)
	want = "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nConnection: close\r\nContent-Length: 30\r\n\r\n{\"error\":\"bad Content-Length\"}"
	if string(got) != want {
		t.Errorf("refusal:\n got %q\nwant %q", got, want)
	}
	got = JSONResponse(200, struct {
		Messages uint64 `json:"messages"`
		Workers  int    `json:"workers"`
	}{7, 2})
	want = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 35\r\n\r\n{\n  \"messages\": 7,\n  \"workers\": 2\n}"
	if string(got) != want {
		t.Errorf("200:\n got %q\nwant %q", got, want)
	}
}

// FuzzReadRequest: arbitrary bytes through the framer at a reader window
// smaller than any line and at the servers' 32 KiB must not panic, must
// not hold more than the bounds (frameAll), must frame identically at
// both windows, and every accepted frame must be one ParseRequestInto
// either refuses or cuts at the same byte — two parsers, one boundary.
func FuzzReadRequest(f *testing.F) {
	for _, tc := range FrameCases {
		f.Add([]byte(tc.Wire))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		small, errSmall := frameAll(t, bytes.NewReader(data), 64)
		frames, err := frameAll(t, bytes.NewReader(data), 32<<10)
		if len(small) != len(frames) || errSmall.Error() != err.Error() {
			t.Fatalf("window changes framing: %d frames/%v at 64, %d frames/%v at 32K", len(small), errSmall, len(frames), err)
		}
		var fe *FrameError
		if err != io.EOF && !errors.As(err, &fe) {
			t.Fatalf("stream ended with %v: neither a clean close nor a FrameError", err)
		}
		rest := data
		for i, frame := range frames {
			if !bytes.Equal(frame, small[i]) {
				t.Fatalf("frame %d differs by window", i)
			}
			// The next frame starts at the next byte: only blank lines may
			// sit between the previous boundary and this frame.
			at := bytes.Index(rest, frame)
			if at < 0 || len(bytes.Trim(rest[:at], "\r\n")) != 0 {
				t.Fatalf("frame %d does not start at the previous boundary", i)
			}
			rest = rest[at+len(frame):]
			head, clen, herr := ReadHead(bufio.NewReader(bytes.NewReader(frame)), nil)
			if herr != nil || len(head)+clen != len(frame) {
				t.Fatalf("frame %d: head %d + body %d != frame %d (%v)", i, len(head), clen, len(frame), herr)
			}
			var req Request
			if ParseRequestInto(frame, &req) != nil {
				continue // the worker answers 400 and closes
			}
			if len(req.Headers) > maxHeaderFields {
				t.Fatalf("frame %d: accepted head carries %d header fields", i, len(req.Headers))
			}
			if len(req.Body) != clen || (clen > 0 && &req.Body[0] != &frame[len(head)]) {
				t.Fatalf("frame %d: parser body %d bytes, framer %d", i, len(req.Body), clen)
			}
		}
	})
}
