package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// ioTimeout bounds one batch write plus its response reads, so a hung
// gateway fails the run instead of hanging it.
const ioTimeout = 20 * time.Second

// batch is a run of pool messages pre-serialized back to back: one Write
// puts a whole window on the wire, then the responses are read in order.
type batch struct {
	wire []byte
	msgs []*poolMsg
}

// buildBatches cuts the pool into consecutive batches of window messages
// and re-points each message's raw bytes into its batch, so the request
// bytes exist once.
func buildBatches(pool []poolMsg, window int) []batch {
	var out []batch
	for i := 0; i+window <= len(pool); i += window {
		var b batch
		for j := i; j < i+window; j++ {
			b.wire = append(b.wire, pool[j].raw...)
			b.msgs = append(b.msgs, &pool[j])
		}
		off := 0
		for _, m := range b.msgs {
			m.raw = b.wire[off : off+len(m.raw) : off+len(m.raw)]
			off += len(m.raw)
		}
		out = append(out, b)
	}
	return out
}

// respReader parses gateway responses off a connection without
// allocating: header values and the body land in reused scratch.
type respReader struct {
	br      *bufio.Reader
	status  int
	outcome []byte
	backend []byte
	body    []byte
}

var (
	hdrClen    = []byte("Content-Length")
	hdrOutcome = []byte("X-AON-Outcome")
	hdrBackend = []byte("X-AON-Backend")
)

// next reads one response.
func (r *respReader) next() error {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return fmt.Errorf("malformed status line %q", line)
	}
	r.status = 0
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return fmt.Errorf("malformed status line %q", line)
		}
		r.status = r.status*10 + int(c-'0')
	}
	r.outcome, r.backend = r.outcome[:0], r.backend[:0]
	clen := 0
	for {
		line, err := r.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		i := bytes.IndexByte(h, ':')
		if i <= 0 {
			return fmt.Errorf("malformed header line %q", h)
		}
		name, val := h[:i], bytes.TrimSpace(h[i+1:])
		switch {
		case bytes.EqualFold(name, hdrClen):
			clen = 0
			for _, c := range val {
				if c < '0' || c > '9' || clen > 1<<24 {
					return fmt.Errorf("bad Content-Length %q", val)
				}
				clen = clen*10 + int(c-'0')
			}
		case bytes.EqualFold(name, hdrOutcome):
			r.outcome = append(r.outcome, val...)
		case bytes.EqualFold(name, hdrBackend):
			r.backend = append(r.backend, val...)
		}
	}
	if cap(r.body) < clen {
		r.body = make([]byte, clen)
	}
	r.body = r.body[:clen]
	_, err = io.ReadFull(r.br, r.body)
	return err
}

// mismatch says why the response just read is not the expected answer
// to m ("" when it is). backends maps a route to the address the
// gateway must name in X-AON-Backend; nil when it answers in place.
func (r *respReader) mismatch(m *poolMsg, backends map[string]string) string {
	switch {
	case r.status != 200:
		return fmt.Sprintf("status %d (%s)", r.status, r.body)
	case string(r.outcome) != m.outcome:
		return fmt.Sprintf("outcome %q, want %q", r.outcome, m.outcome)
	case m.body != nil && !bytes.Equal(r.body, m.body):
		return fmt.Sprintf("body %.80q, want %.80q", r.body, m.body)
	case backends != nil && string(r.backend) != backends[m.route]:
		return fmt.Sprintf("served by backend %q, want %s at %q", r.backend, m.route, backends[m.route])
	}
	return ""
}

// conn is one client goroutine's connection and its private tallies.
type conn struct {
	c        net.Conn
	rd       respReader
	backends map[string]string

	sent     int64
	failed   int64
	bytesOut int64
	firstErr string
	// ok counts correct 200 responses; it is the one field the window
	// sampler reads while the client runs.
	ok atomic.Int64

	lat  hist // per message: batch write (or due time) to response read
	lag  hist // paced only: due time to actual send
	late int64

	// Latency quantiles of each finished window of the measured interval:
	// winLat collects the window that ends at winEnd.
	winLat     hist
	winEnd     time.Time
	p50s, p90s []float64
}

func dialConn(addr string, backends map[string]string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, rd: respReader{br: bufio.NewReaderSize(c, 64<<10)}, backends: backends, winEnd: time.Now().Add(window)}, nil
}

func (cn *conn) fail(n int64, why string) {
	cn.failed += n
	if cn.firstErr == "" {
		cn.firstErr = why
	}
}

// reset clears the tallies; the first latency window ends at winEnd.
func (cn *conn) reset(winEnd time.Time) {
	cn.sent, cn.failed, cn.bytesOut, cn.late, cn.firstErr = 0, 0, 0, 0, ""
	cn.ok.Store(0)
	cn.lat, cn.lag, cn.winLat = hist{}, hist{}, hist{}
	cn.winEnd, cn.p50s, cn.p90s = winEnd, cn.p50s[:0], cn.p90s[:0]
}

// observe records one correct response's latency, first closing the
// latency window if now is past its end.
func (cn *conn) observe(d time.Duration, now time.Time) {
	if !now.Before(cn.winEnd) {
		if cn.winLat.n > 0 {
			cn.p50s = append(cn.p50s, cn.winLat.quantile(0.50))
			cn.p90s = append(cn.p90s, cn.winLat.quantile(0.90))
			cn.winLat = hist{}
		}
		cn.winEnd = cn.winEnd.Add(now.Sub(cn.winEnd).Truncate(window) + window)
	}
	cn.lat.record(int64(d))
	cn.winLat.record(int64(d))
}

// exchange writes one batch and reads and checks its responses, timing
// each from t0. It returns false when the connection is no longer usable;
// the unanswered rest of the batch then counts as failed.
func (cn *conn) exchange(b *batch, t0 time.Time) bool {
	cn.c.SetDeadline(time.Now().Add(ioTimeout))
	cn.sent += int64(len(b.msgs))
	if _, err := cn.c.Write(b.wire); err != nil {
		cn.fail(int64(len(b.msgs)), "write: "+err.Error())
		return false
	}
	cn.bytesOut += int64(len(b.wire))
	good := int64(0)
	for i, m := range b.msgs {
		if err := cn.rd.next(); err != nil {
			cn.fail(int64(len(b.msgs)-i), "read: "+err.Error())
			cn.ok.Add(good)
			return false
		}
		if why := cn.rd.mismatch(m, cn.backends); why != "" {
			cn.fail(1, why)
			continue
		}
		now := time.Now()
		cn.observe(now.Sub(t0), now)
		good++
	}
	cn.ok.Add(good)
	return true
}

// runClosed is the closed loop: batch k goes out as soon as batch k-1 is
// fully answered, until the deadline. first staggers the connections
// over the batches.
func (cn *conn) runClosed(batches []batch, first int, deadline time.Time) {
	for k := first; ; k++ {
		t0 := time.Now()
		if !t0.Before(deadline) || !cn.exchange(&batches[k%len(batches)], t0) {
			return
		}
	}
}

// runPaced is the open loop: message k is due at tick k of the
// connection's ticker whatever happened to message k-1, latency counts
// from the due time, and a send that starts more than one period late is
// counted late.
func (cn *conn) runPaced(batches []batch, first int, tk *ticker, period time.Duration, deadline time.Time) {
	due := 0 // ticks that have come due so far
	for k := 0; ; k++ {
		at := tk.first.Add(time.Duration(k) * period)
		if !at.Before(deadline) {
			return
		}
		for due <= k {
			n, err := tk.wait()
			if err != nil {
				cn.fail(1, "ticker: "+err.Error())
				return
			}
			due += n
		}
		lag := time.Since(at)
		cn.lag.record(int64(lag))
		if lag > period {
			cn.late++
		}
		if !cn.exchange(&batches[(first+k)%len(batches)], at) {
			return
		}
	}
}
