// Package dtrace is the gateway's per-request tracing plane and its one
// request clock: a trace ID minted at admission (or adopted from the
// client's X-AON-Trace header), one span per pipeline Stage, context
// propagated on a sampled request's upstream forward, and a server-side
// span recorded in the backend — so a p99 exemplar can be followed
// across process boundaries and attributed to parse, queue, or backend
// time. The gateway folds every finished request's stage spans into its
// /stats stage histograms (a campaign phase's stage window), so the
// aggregate and the per-request view are the same measurements. Sampling
// is one decision, the client's: a request it sampled carries
// X-AON-Trace, the gateway keeps its trace and propagates the context
// upstream, and the backend keeps the serve span — so every sampled
// trace assembles whole, and nothing else reaches the backend's ring.
// The gateway's bounded ring also keeps, after the fact, every shed,
// draining, idle-reaped, 5xx or 50 ms-slow request, sampled or not: the
// requests worth drilling into.
//
// The paper's multi-level methodology stops at aggregate CPI and
// cache-miss attribution; RZBENCH-style evaluation (PAPERS.md) needs the
// per-request view once the topology spans machines — shared-resource
// coupling shows up in tail exemplars, never in means.
package dtrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"time"
)

// Header is the context-propagation header: "X-AON-Trace:
// <traceID>-<parentSpanID>", both 16 lowercase hex digits. A campaign's
// senders inject it to originate traces at the client; the gateway adopts
// an inbound ID (or mints one) and re-injects it on upstream forwards so
// aonback's server span joins the same trace.
const Header = "X-AON-Trace"

// ID is a 64-bit trace or span identifier, rendered as 16 hex digits.
// The zero ID means "absent" (no parent, not traced).
type ID uint64

// NewID mints a non-zero random ID. math/rand/v2's global generator is
// allocation-free and lock-free, so minting stays off the hot path's
// allocation budget.
func NewID() ID {
	for {
		if id := ID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// IsZero reports whether the ID is absent.
func (id ID) IsZero() bool { return id == 0 }

const hexDigits = "0123456789abcdef"

// AppendHex appends the 16-digit lowercase hex form to dst.
func (id ID) AppendHex(dst []byte) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(uint64(id)>>shift)&0xf])
	}
	return dst
}

// String renders the 16-digit hex form.
func (id ID) String() string {
	return string(id.AppendHex(make([]byte, 0, 16)))
}

// MarshalJSON renders the ID as a quoted 16-digit hex string — stable
// across languages and grep-friendly in JSONL artifacts.
func (id ID) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = id.AppendHex(b)
	return append(b, '"'), nil
}

// UnmarshalJSON accepts the quoted hex form (and bare integers, for
// hand-written fixtures).
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		v, ok := parseHex(b[1 : len(b)-1])
		if !ok {
			return fmt.Errorf("dtrace: bad id %s", b)
		}
		*id = v
		return nil
	}
	var n uint64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("dtrace: bad id %s", b)
	}
	*id = ID(n)
	return nil
}

// parseHex parses 1..16 hex digits.
func parseHex[T string | []byte](b T) (ID, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return ID(v), true
}

// AppendHeaderValue appends the X-AON-Trace value
// "<traceID>-<parentSpanID>" to dst — the append-to-dst twin of
// fmt.Sprintf("%016x-%016x", ...), so header injection costs no
// allocation on the forward path.
func AppendHeaderValue(dst []byte, traceID, spanID ID) []byte {
	dst = traceID.AppendHex(dst)
	dst = append(dst, '-')
	return spanID.AppendHex(dst)
}

// ParseHeaderValue parses "<traceID>-<parentSpanID>" from either view a
// server holds it in: the gateway's zero-copy parse hands header values
// out as strings aliasing the frame, the backend's framed head as bytes.
// A missing or malformed value returns ok=false; a trace ID of zero is
// rejected (it would collide every orphan span into one trace), and so
// is a zero parent: the header marks a client-sampled request, whose
// root must name the span it parents under.
func ParseHeaderValue[T string | []byte](v T) (traceID, parentID ID, ok bool) {
	if len(v) != 33 || v[16] != '-' {
		return 0, 0, false
	}
	traceID, ok = parseHex(v[:16])
	if !ok || traceID.IsZero() {
		return 0, 0, false
	}
	parentID, ok = parseHex(v[17:])
	if !ok || parentID.IsZero() {
		return 0, 0, false
	}
	return traceID, parentID, true
}

// Span is one timed segment of a request on one node. StartUS is the
// recording node's own wall clock in microseconds: spans are joined
// across nodes by trace ID only — never by comparing start times across
// machines (the same no-cross-clock rule the campaign recorder applies
// to sample rows).
type Span struct {
	TraceID  ID `json:"trace_id"`
	SpanID   ID `json:"span_id"`
	ParentID ID `json:"parent_id,omitempty"`
	// Node names the recording process ("client", "gateway",
	// "backend/order", or the fleet node key).
	Node string `json:"node"`
	// Name is the span's role: "request" (client), "gateway" (root),
	// "read"/"parse"/"process"/"forward"/"write" (stages),
	// "serve" (backend).
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// UseCase/Outcome/Status annotate root and serve spans: the pipeline
	// that handled the request and how it ended.
	UseCase string `json:"usecase,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Status  int    `json:"status,omitempty"`
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.DurUS) * time.Microsecond }

// Trace is one request's recorded spans from one node — the unit the
// tail ring stores and GET /traces serves. Fleet assembly merges the
// per-node traces that share a TraceID.
type Trace struct {
	TraceID ID     `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// ReadSpansJSONL reads spans from a JSONL stream holding either bare
// Span lines or Trace lines (both appear in fleet artifacts), skipping
// blank lines.
// InjectHeader copies the raw HTTP request into dst with an X-AON-Trace
// header spliced in before the header block's terminating blank line —
// how a campaign's senders originate traces at the client without
// re-rendering the pooled request bytes. A frame without CRLFCRLF comes
// back unmodified (copied).
func InjectHeader(dst, raw []byte, traceID, spanID ID) []byte {
	i := bytes.Index(raw, []byte("\r\n\r\n"))
	if i < 0 {
		return append(dst, raw...)
	}
	dst = append(dst, raw[:i+2]...)
	dst = append(dst, Header...)
	dst = append(dst, ": "...)
	dst = AppendHeaderValue(dst, traceID, spanID)
	dst = append(dst, '\r', '\n')
	return append(dst, raw[i+2:]...)
}

func ReadSpansJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		// A Trace line has a "spans" array; a Span line doesn't. Probe
		// with the richer shape first.
		var tr Trace
		if err := json.Unmarshal(b, &tr); err == nil && len(tr.Spans) > 0 {
			out = append(out, tr.Spans...)
			continue
		}
		var sp Span
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("dtrace: jsonl line %d: %w", line, err)
		}
		if sp.TraceID.IsZero() {
			return nil, fmt.Errorf("dtrace: jsonl line %d: span without trace_id", line)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dtrace: jsonl: %w", err)
	}
	return out, nil
}
