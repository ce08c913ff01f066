// Package verdict is the XML server application's one decision (Section
// 3.2.1 of the paper): given a use case and a parsed request, where does
// the message go? FR forwards it; CBR routes on //quantity/text() = "1";
// SV validates it against the stored order schema; the DPI and AUTH
// extensions scan it for signatures and check its HMAC; XJ rewrites its
// body as JSON. Decide is the only code that answers, and both the live
// gateway and the simulated server call it, so the two cannot disagree.
// They differ only in the Meter they pass: none on the live path (pooled
// zero-copy tree, early-exit scan, nothing emitted), or a simulator's
// emitter, body address and node arena (metered parse, full scan,
// every metered kernel charged).
package verdict

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dpi"
	"repro/internal/httpmsg"
	"repro/internal/perf/trace"
	"repro/internal/wcrypto"
	"repro/internal/workload"
	"repro/internal/xj"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
	"repro/internal/zc"
)

// RouteExprSource is the paper's CBR lookup expression.
const RouteExprSource = "//quantity/text()"

// RouteMatchValue is the routing condition: a CBR message goes to the
// intended endpoint when the expression's string-value equals this.
const RouteMatchValue = "1"

// Outcome classifies what the device did with one message.
type Outcome int

const (
	// OutForwarded: FR — proxied unchanged; DPI — no signature hit; AUTH —
	// the MAC checked out.
	OutForwarded Outcome = iota
	// OutMatch: CBR — the expression equalled RouteMatchValue.
	OutMatch
	// OutNoMatch: CBR/SV/DPI/AUTH — routed to the error endpoint.
	OutNoMatch
	// OutValid: SV — the message validated against the order schema.
	OutValid
	// OutParseError: malformed XML, a CBR expression that failed to
	// evaluate, an AUTH message without a MAC, or an unknown use case.
	OutParseError
	// OutTranslated: XJ — the XML body was rewritten as JSON and rides
	// onward to the intended endpoint.
	OutTranslated
)

func (o Outcome) String() string {
	switch o {
	case OutForwarded:
		return "forwarded"
	case OutMatch:
		return "match"
	case OutNoMatch:
		return "error"
	case OutValid:
		return "valid"
	case OutParseError:
		return "parse-error"
	case OutTranslated:
		return "translated"
	}
	return "invalid"
}

// Intended reports whether the message goes on to the intended endpoint;
// every other outcome sends it to the error endpoint.
func (o Outcome) Intended() bool {
	switch o {
	case OutForwarded, OutMatch, OutValid, OutTranslated:
		return true
	}
	return false
}

// Rules is the device's pre-stored rule set (the paper's device compiles
// the lookup expression and loads the schema once, Section 3.2.1): the
// CBR expression, the SV schema and the DPI automaton. It is read-only
// once built, so any number of callers may share it — apart from
// PlaceDPITable, which only a simulated server calls.
type Rules struct {
	expr    *xpath.Expr
	schema  *xsd.Schema
	matcher *dpi.Matcher
}

// New compiles the rule set. An empty expr is RouteExprSource; a nil
// schema is the AONBench order schema.
func New(expr string, schema *xsd.Schema) (*Rules, error) {
	if expr == "" {
		expr = RouteExprSource
	}
	e, err := xpath.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("bad routing expression: %w", err)
	}
	if schema == nil {
		schema = workload.OrderSchema()
	}
	return &Rules{expr: e, schema: schema, matcher: dpi.MustNewMatcher(dpi.DefaultSignatures)}, nil
}

// PlaceDPITable puts the DPI transition table at base in the simulated
// address space, where metered scans load from.
func (r *Rules) PlaceDPITable(base uint64) { r.matcher.SetSimBase(base) }

// Meter is what a simulated server charges one message's work to. A nil
// *Meter is the live path.
type Meter struct {
	Em    trace.Emitter // receives every metered kernel's micro-ops
	Body  uint64        // simulated address of the request body's first byte
	Arena *trace.Arena  // simulated heap the parse places tree nodes in; reset per message
}

// Decide runs use case uc on req and returns the outcome.
//
// FR rewrites the target; DPI and AUTH read the body as bytes; CBR, SV
// and XJ read its tree, which comes from a pooled StreamParser: views
// into req.Body and pooled node slabs, valid only until Decide returns
// (the CBR value is compared here, never kept). Metered, the parse places
// the tree's nodes in m.Arena, and it, the evaluator, validator, scan and
// HMAC report to m.Em; the XJ translation is not metered.
//
// XJ renders the translation into *xjBuf, grown as needed, and points
// req.Body and its Content-Type and Content-Length headers at it: they
// are valid until the caller reuses the buffer.
func (r *Rules) Decide(uc workload.UseCase, req *httpmsg.Request, m *Meter, xjBuf *[]byte) Outcome {
	var em trace.Emitter = trace.Nop{}
	var body uint64
	if m != nil {
		em, body = m.Em, m.Body
	}
	switch uc {
	case workload.FR:
		httpmsg.RewriteTarget(req, em)
		return OutForwarded
	case workload.DPI:
		var hit bool
		if m == nil {
			hit = r.matcher.Contains(req.Body)
		} else {
			hit = len(r.matcher.ScanInstrumented(req.Body, em, body)) > 0
		}
		if hit {
			return OutNoMatch
		}
		return OutForwarded
	case workload.AUTH:
		claimed, ok := req.Get("X-AON-MAC")
		if !ok {
			return OutParseError
		}
		if wcrypto.EqualHex(wcrypto.HMAC(workload.AuthKey, req.Body, em, body), claimed) {
			return OutForwarded
		}
		return OutNoMatch
	case workload.CBR, workload.SV, workload.XJ:
		// These read the body's tree, built below.
	default:
		return OutParseError
	}

	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	var doc *xmldom.Node
	var err error
	if m == nil {
		doc, err = sp.Parse(req.Body)
	} else {
		m.Arena.Reset()
		doc, err = sp.ParseMetered(req.Body, em, body, m.Arena)
	}
	if err != nil {
		return OutParseError
	}
	switch uc {
	case workload.CBR:
		val, err := xpath.NewEvaluator(em).EvalString(r.expr, doc)
		if err != nil {
			return OutParseError
		}
		if val == RouteMatchValue {
			return OutMatch
		}
		return OutNoMatch
	case workload.SV:
		if xsd.NewValidator(r.schema, em).Valid(doc) {
			return OutValid
		}
		return OutNoMatch
	}
	b, err := xj.AppendTranslate((*xjBuf)[:0], doc)
	if err != nil {
		return OutParseError
	}
	// Protocol translation rewrites the message in place: the JSON body
	// and its headers ride onward. The Content-Length digits follow the
	// body in the same buffer.
	n := len(b)
	b = strconv.AppendInt(b, int64(n), 10)
	*xjBuf = b
	req.Body = b[:n:n]
	setHeader(req, "Content-Type", "application/json")
	setHeader(req, "Content-Length", zc.String(b[n:]))
	return OutTranslated
}

// setHeader replaces the named header's value in place (appending when
// absent), keeping a rewritten request self-consistent.
func setHeader(req *httpmsg.Request, name, value string) {
	for i := range req.Headers {
		if strings.EqualFold(req.Headers[i].Name, name) {
			req.Headers[i].Value = value
			return
		}
	}
	req.Headers = append(req.Headers, httpmsg.Header{Name: name, Value: value})
}
