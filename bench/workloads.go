package main

import (
	"fmt"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// Every workload drives the gateway over this many keep-alive loopback
// connections, one client goroutine each — never more than the two
// logical CPUs the process is pinned to, so the generator does not
// queue behind itself.
const nConns = 2

// poolSize is the number of distinct pre-generated messages a workload
// cycles through. Messages differ in item and filler counts, and with
// them in allocations and time per message; over 512 of them the pool
// means of two seeds agree to about 1 %, where 64 left 4 %.
const poolSize = 512

// spec is one benchmark workload: what the pool holds and how the
// clients offer it.
type spec struct {
	name string
	why  string
	// size is the approximate POST body size in bytes.
	size int
	// slot says what pool slot i carries: the use case (selected by
	// request path), the workload message index handed to the seeded
	// generator (its parity decides the CBR route), and whether the body
	// is the schema-invalid variant.
	slot func(i int) (uc workload.UseCase, msg int, invalid bool)
	// window is the number of pipelined requests per connection: one
	// batch write, then that many response reads. 1 on the paced workload.
	window int
	// period is each connection's open-loop send interval; 0 means closed
	// loop (send the next batch as soon as the last response is read).
	period time.Duration
	// forward puts two in-process upstream backends (order/error) behind
	// the gateway; otherwise it answers in place.
	forward bool
}

var mixCycle = [8]workload.UseCase{
	workload.FR, workload.CBR, workload.FR, workload.SV,
	workload.FR, workload.CBR, workload.FR, workload.XJ,
}

var specs = []spec{
	{
		name: "fr-1k-sat",
		why:  "FR in place, 1 KB, closed loop, 8 pipelined per conn: framing, httpmsg parse, queue hand-off and response write are all of the cost; bypasses every XML layer",
		size: 1024, window: 8,
		slot: func(i int) (workload.UseCase, int, bool) { return workload.FR, i, false },
	},
	{
		name: "cbr-5k-sat",
		why:  "CBR //quantity/text() on the paper's 5 KB SOAP message, both routes 50/50, closed loop: xmldom tree build + xpath dominate and allocate ~100 KB/msg",
		size: workload.MessageBytes, window: 8,
		slot: func(i int) (workload.UseCase, int, bool) { return workload.CBR, i, false },
	},
	{
		name: "sv-5k-sat",
		why:  "SV on the same 5 KB message, every 4th schema-invalid, closed loop: same xmldom build, different consumer (xsd), so tokenizer gains move it and CBR-only gains must not",
		size: workload.MessageBytes, window: 8,
		slot: func(i int) (workload.UseCase, int, bool) { return workload.SV, i, i%4 == 3 },
	},
	{
		name: "mix-fwd-5k-paced",
		why:  "open loop at 2000 msg/s (~1/3 of the CPU), 5 KB, FR/CBR/SV/XJ cycled by path, forwarded to order/error backends: latency from due time shows hand-off and forwarding cost that saturation hides",
		size: workload.MessageBytes, window: 1, period: time.Millisecond, forward: true,
		slot: func(i int) (workload.UseCase, int, bool) {
			// Both CBR slots of the cycle are odd; flipping the low bit on
			// every other cycle keeps the two CBR routes 50/50.
			return mixCycle[i%len(mixCycle)], i ^ (i >> 2 & 1), false
		},
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolMsg is one pre-built request and what the checker expects back.
type poolMsg struct {
	raw     []byte
	uc      workload.UseCase
	outcome string // expected X-AON-Outcome
	route   string // "order" or "error": the backend a forwarded message goes to
	// body is the exact expected response body when the gateway answers in
	// place (the routing verdict, or the translated document for XJ); nil
	// when a backend's ack is relayed instead.
	body []byte
}

// buildPool generates the workload's messages from the seed — the only
// way the seed reaches the program — and computes each one's expected
// answer by running the gateway's own pipeline on it directly.
func buildPool(sp *spec, seed uint64) ([]poolMsg, error) {
	pipe, err := gateway.NewPipeline(workload.FR, "", nil)
	if err != nil {
		return nil, err
	}
	pool := make([]poolMsg, poolSize)
	var req httpmsg.Request
	for i := range pool {
		uc, msg, invalid := sp.slot(i)
		m := &pool[i]
		m.uc = uc
		if invalid {
			m.raw = gateway.RawPost(uc, workload.InvalidSOAPMessageSeeded(msg, sp.size, seed))
		} else {
			m.raw = workload.HTTPRequestSeeded(msg, uc, sp.size, seed)
		}
		if err := httpmsg.ParseRequestInto(m.raw, &req); err != nil {
			return nil, fmt.Errorf("pool message %d: %w", i, err)
		}
		if got := pipe.SelectUseCase(req.Target); got != uc {
			return nil, fmt.Errorf("pool message %d selects %v, want %v", i, got, uc)
		}
		out := pipe.Process(uc, &req)
		if out == gateway.OutParseError {
			return nil, fmt.Errorf("pool message %d does not process", i)
		}
		m.outcome = out.String()
		m.route = "order"
		if out == gateway.OutNoMatch {
			m.route = "error"
		}
		switch {
		case sp.forward:
		case out == gateway.OutTranslated:
			m.body = req.Body // Process replaced it with xj.Translate's output
		default:
			m.body = []byte(fmt.Sprintf(`{"usecase":%q,"outcome":%q,"route":%q}`, uc, m.outcome, m.route))
		}
	}
	return pool, nil
}
