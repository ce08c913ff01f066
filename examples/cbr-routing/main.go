// cbr-routing walks through the Content-Based Routing pipeline as a plain
// library (no simulation): HTTP parsing, DOM construction, XPath
// evaluation and the routing decision — the paper's Section 3.2.1 use
// case, end to end, on real messages.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/httpmsg"
	"repro/internal/verdict"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks ten messages through the pipeline, printing to w.
func run(w io.Writer) error {
	// The paper's routing rule: forward to the order endpoint when
	// //quantity/text() equals "1", else to the error handler.
	route := xpath.MustCompile(verdict.RouteExprSource)
	ev := xpath.NewEvaluator(nil)

	endpoints := map[bool]string{
		true:  "http://orders.internal/submit",
		false: "http://errors.internal/reject",
	}
	counts := map[string]int{}
	var doc7 *xmldom.Node // message 7, for the richer expression below

	for i := 0; i < 10; i++ {
		// A client HTTP POST carrying a 5 KB AONBench SOAP message.
		raw := workload.HTTPRequest(i, workload.CBR)

		var req httpmsg.Request
		if err := httpmsg.ParseRequestInto(raw, &req); err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		doc, err := xmldom.Parse(req.Body)
		if err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		if i == 7 {
			doc7 = doc
		}

		val, err := ev.EvalString(route, doc)
		if err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		matched := val == verdict.RouteMatchValue
		dest := endpoints[matched]
		counts[dest]++

		// The proxy rewrites the target and forwards the original body.
		fwd := &httpmsg.Request{
			Method: req.Method,
			Target: dest,
			Proto:  req.Proto,
			Headers: append([]httpmsg.Header{
				{Name: "Via", Value: "1.1 aon-gw"},
			}, req.Headers...),
			Body: req.Body,
		}
		out := httpmsg.FormatRequest(fwd)
		fmt.Fprintf(w, "message %2d: quantity=%q -> %-34s (%d bytes forwarded)\n",
			i, val, dest, len(out))
	}

	fmt.Fprintln(w)
	for _, matched := range []bool{true, false} {
		fmt.Fprintf(w, "%-34s %d messages\n", endpoints[matched], counts[endpoints[matched]])
	}

	// Demonstrate a richer expression on one of the same documents: the
	// line items worth more than 400 in message 7 (two of its four).
	expensive := xpath.MustCompile(`count(//item[price > 400])`)
	n, err := ev.EvalString(expensive, doc7)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmessage 7 has %s line items priced above 400\n", n)
	return nil
}
