package main

import (
	"fmt"
	"io"

	"repro/internal/perf/trace"
	"repro/internal/verdict"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// runMix is -exp mix: n AONBench messages go through the instrumented
// XML stack — parse, the CBR routing expression, schema validation — and
// it prints the verdicts and the abstract instruction mix each kernel
// emitted, the raw material behind Table 5's branch frequencies.
func runMix(w io.Writer, n int) error {
	route := xpath.MustCompile(verdict.RouteExprSource)
	schema := workload.OrderSchema()
	arena := trace.NewArena(1<<30, 1<<24)

	var parseMix, xpathMix, svMix trace.Counting
	matches, valid := 0, 0
	for i := 0; i < n; i++ {
		doc, err := xmldom.ParseInstrumented(workload.SOAPMessage(i), &parseMix, 0x10000, arena)
		if err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		val, err := xpath.NewEvaluator(&xpathMix).EvalString(route, doc)
		if err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		if val == verdict.RouteMatchValue {
			matches++
		}
		if xsd.NewValidator(schema, &svMix).Valid(doc) {
			valid++
		}
	}

	fmt.Fprintf(w, "processed %d AONBench messages (%d bytes each)\n", n, workload.MessageBytes)
	fmt.Fprintf(w, "  CBR %q matched: %d/%d\n", verdict.RouteExprSource, matches, n)
	fmt.Fprintf(w, "  SV schema-valid: %d/%d\n", valid, n)
	report := func(name string, c trace.Counting) {
		fmt.Fprintf(w, "  %-12s instr=%8d loads=%7d stores=%7d branches=%7d (%.1f%% branches, %.1f%% taken)\n",
			name, c.Instr, c.Loads, c.Stores, c.Branches,
			100*float64(c.Branches)/float64(c.Instr),
			100*float64(c.Taken)/float64(c.Branches))
	}
	report("parse", parseMix)
	report("xpath", xpathMix)
	report("validate", svMix)
	return nil
}
