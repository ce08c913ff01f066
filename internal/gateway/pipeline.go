package gateway

import (
	"fmt"
	"strings"

	"repro/internal/httpmsg"
	"repro/internal/verdict"
	"repro/internal/workload"
	"repro/internal/xsd"
)

// The outcome names bench/ uses, kept until it moves to one load client
// (ROADMAP 1(e)); the gateway itself uses the verdict package's.
const (
	OutNoMatch    = verdict.OutNoMatch
	OutParseError = verdict.OutParseError
	OutTranslated = verdict.OutTranslated
)

// RouteHeader is the response header carrying the routing decision, so a
// load client can assert outcomes without a second channel.
const RouteHeader = "X-AON-Route"

// routeOf names the endpoint the device forwards an outcome to: "order"
// for the intended endpoint, "error" otherwise.
func routeOf(o verdict.Outcome) string {
	if o.Intended() {
		return "order"
	}
	return "error"
}

// Pipeline is the gateway's use-case selection in front of the shared
// verdict rules, built once at server start and read-only across
// connections.
type Pipeline struct {
	rules *verdict.Rules
	def   workload.UseCase
}

// NewPipeline builds the rules (empty expr and nil schema are the
// paper's defaults; see verdict.New). def is the use case applied when a
// request path does not select one.
func NewPipeline(def workload.UseCase, expr string, schema *xsd.Schema) (*Pipeline, error) {
	r, err := verdict.New(expr, schema)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return &Pipeline{rules: r, def: def}, nil
}

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

// Process decides req on the live path. XJ replaces req.Body with the
// translation in a fresh buffer the caller owns.
func (p *Pipeline) Process(uc workload.UseCase, req *httpmsg.Request) verdict.Outcome {
	var xjBuf []byte
	if uc == workload.XJ {
		// The JSON runs to about three quarters of the XML: one allocation.
		xjBuf = make([]byte, 0, len(req.Body))
	}
	return p.process(uc, req, &xjBuf)
}

// process is Process rendering the XJ translation into *xjBuf: the
// connection path passes a buffer it owns for its whole life.
func (p *Pipeline) process(uc workload.UseCase, req *httpmsg.Request, xjBuf *[]byte) verdict.Outcome {
	return p.rules.Decide(uc, req, nil, xjBuf)
}
