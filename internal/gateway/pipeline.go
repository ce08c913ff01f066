package gateway

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

// Outcome classifies what the gateway did with one message — the live
// equivalent of the per-message branches the simulated server counts in
// aon.Stats.
type Outcome int

const (
	// OutForwarded: FR — the request was proxied unchanged.
	OutForwarded Outcome = iota
	// OutMatch: CBR — //quantity/text() equalled the routing value; the
	// message goes to the order endpoint.
	OutMatch
	// OutNoMatch: CBR/SV/DPI/AUTH — routed to the error endpoint.
	OutNoMatch
	// OutValid: SV — the message validated against the order schema.
	OutValid
	// OutParseError: malformed HTTP or XML; the client gets a 400.
	OutParseError
	// OutTranslated: XJ — the XML body was rewritten as JSON; the
	// translated document rides onward to the order endpoint (or back to
	// the client in in-place mode).
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

// RouteHeader is the response header carrying the routing decision, so a
// load client can assert outcomes without a second channel.
const RouteHeader = "X-AON-Route"

// routeOf maps an outcome to the endpoint name the device would forward
// to: "order" for the intended endpoint, "error" otherwise.
func routeOf(o Outcome) string {
	switch o {
	case OutForwarded, OutMatch, OutValid, OutTranslated:
		return "order"
	default:
		return "error"
	}
}

// Pipeline holds the pre-compiled artifacts for the use-case processing:
// the CBR XPath, the SV schema, and the DPI automaton are built once at
// server start (the paper's device pre-stores the lookup expression and
// schema, Section 3.2.1) and shared read-only across connections.
type Pipeline struct {
	expr    *xpath.Expr
	eval    *xpath.Evaluator // stateless; shared read-only across connections
	schema  *xsd.Schema
	matcher *dpi.Matcher
	def     workload.UseCase
}

// NewPipeline compiles the routing expression and resolves the schema.
// Empty expr defaults to the paper's //quantity/text(); nil schema
// defaults to the AONBench order schema. def is the use case applied when
// a request path does not select one.
func NewPipeline(def workload.UseCase, expr string, schema *xsd.Schema) (*Pipeline, error) {
	if expr == "" {
		expr = "//quantity/text()"
	}
	e, err := xpath.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("gateway: bad routing expression: %w", err)
	}
	if schema == nil {
		schema = workload.OrderSchema()
	}
	return &Pipeline{
		expr:    e,
		eval:    xpath.NewEvaluator(nil),
		schema:  schema,
		matcher: dpi.MustNewMatcher(dpi.DefaultSignatures),
		def:     def,
	}, nil
}

// RouteMatchValue is the CBR routing condition value.
const RouteMatchValue = "1"

// SelectUseCase picks the use case for a request: the last path segment of
// the target selects one by name (/service/CBR), otherwise the pipeline's
// default applies. This lets a single gateway serve the whole grid.
func (p *Pipeline) SelectUseCase(target string) workload.UseCase {
	if i := strings.LastIndexByte(target, '/'); i >= 0 {
		if uc, err := workload.ParseUseCase(target[i+1:]); err == nil {
			return uc
		}
	}
	return p.def
}

// Process runs the use-case pipeline on a parsed request.
//
// XML-processing cases parse through a pooled StreamParser: the tree is
// views into req.Body (the connection's pooled frame) and pooled node
// slabs, both valid for exactly the duration of this call, and the
// deferred Release recycles the parser only after every consumer ran.
// Schema validation returns a verdict and copies nothing; the CBR value
// EvalString returns is a view into the frame (the matched text node's
// Data) and is only compared here, never kept. XJ replaces req.Body with
// the translation, a fresh buffer the caller owns.
func (p *Pipeline) Process(uc workload.UseCase, req *httpmsg.Request) Outcome {
	var xjBuf []byte
	if uc == workload.XJ {
		// The JSON runs to about three quarters of the XML: one allocation.
		xjBuf = make([]byte, 0, len(req.Body))
	}
	return p.process(uc, req, &xjBuf)
}

// process is Process with the XJ translation rendered into *xjBuf, grown as
// needed: the translated body and its Content-Length digits live there,
// so req.Body and that header are valid until the caller reuses the
// buffer. The connection path passes a buffer it owns for its whole life.
func (p *Pipeline) process(uc workload.UseCase, req *httpmsg.Request, xjBuf *[]byte) Outcome {
	switch uc {
	case workload.FR:
		// Forwarding only: the target rewrite is the whole content path.
		httpmsg.RewriteTarget(req, trace.Nop{})
		return OutForwarded
	case workload.CBR:
		sp := xmldom.AcquireStreamParser()
		defer sp.Release()
		doc, err := sp.Parse(req.Body)
		if err != nil {
			return OutParseError
		}
		val, err := p.eval.EvalString(p.expr, doc)
		if err != nil {
			return OutParseError
		}
		if val == RouteMatchValue {
			return OutMatch
		}
		return OutNoMatch
	case workload.SV:
		sp := xmldom.AcquireStreamParser()
		defer sp.Release()
		doc, err := sp.Parse(req.Body)
		if err != nil {
			return OutParseError
		}
		if xsd.Valid(p.schema, doc) {
			return OutValid
		}
		return OutNoMatch
	case workload.DPI:
		if p.matcher.Contains(req.Body) {
			return OutNoMatch
		}
		return OutForwarded
	case workload.AUTH:
		claimed, ok := req.Get("X-AON-MAC")
		if !ok {
			return OutParseError
		}
		if wcrypto.EqualHex(wcrypto.HMAC(workload.AuthKey, req.Body, nil, 0), claimed) {
			return OutForwarded
		}
		return OutNoMatch
	case workload.XJ:
		sp := xmldom.AcquireStreamParser()
		defer sp.Release()
		doc, err := sp.Parse(req.Body)
		if err != nil {
			return OutParseError
		}
		b, err := xj.AppendTranslate((*xjBuf)[:0], doc)
		if err != nil {
			return OutParseError
		}
		// Protocol translation rewrites the message in place: the JSON
		// body and its headers ride onward through forwarding, or back to
		// the client in in-place mode.
		n := len(b)
		b = strconv.AppendInt(b, int64(n), 10)
		*xjBuf = b
		req.Body = b[:n:n]
		setHeader(req, "Content-Type", "application/json")
		setHeader(req, "Content-Length", zc.String(b[n:]))
		return OutTranslated
	}
	return OutParseError
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
