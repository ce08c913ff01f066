// Package repro's root benchmarks time the simulator itself: the metered
// XML parse every simulated worker runs, and a whole simulated message.
// The paper's tables, extensions and ablations are cmd/aonsim's
// (go run ./cmd/aonsim -exp all). Run with:
//
//	go test -run '^$' -bench . -benchmem .
package repro

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
	"repro/internal/workload"
	"repro/internal/xmldom"
)

// BenchmarkXMLParse measures the real (host) cost of parsing one AONBench
// message with instrumentation attached.
func BenchmarkXMLParse(b *testing.B) {
	msg := workload.SOAPMessage(7)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parseForBench(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// parseForBench parses metered on a pooled parser, as the simulated
// workers do, so BenchmarkXMLParse measures the real per-message host cost.
func parseForBench(msg []byte) error {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	var c trace.Counting
	arena := trace.NewArena(1<<32, 1<<20)
	_, err := sp.ParseMetered(msg, &c, 0x1000, arena)
	return err
}

// BenchmarkSimulatedMessage measures host time per fully simulated CBR
// message on the dual-core machine (simulator efficiency).
func BenchmarkSimulatedMessage(b *testing.B) {
	opts := harness.AONOpts{WarmupMsgs: 20, MeasureMsgs: b.N, Window: 32}
	if opts.MeasureMsgs < 50 {
		opts.MeasureMsgs = 50
	}
	b.ResetTimer()
	if _, err := harness.RunAON(harness.Cell{Config: machine.TwoCPm, UseCase: workload.CBR}, opts); err != nil {
		b.Fatal(err)
	}
}
