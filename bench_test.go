// Package repro's root benchmarks time the simulator itself: the metered
// XML parse every simulated worker runs, and a whole simulated message.
// The paper's tables, extensions and ablations are cmd/aonsim's
// (go run ./cmd/aonsim -exp all). Run with:
//
//	go test -run '^$' -bench . -benchmem .
package repro

import (
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/perf/counters"
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

// BenchmarkSimulatedMessage measures the simulator's speed on CBR on the
// dual-core Pentium M and on the Hyperthreaded Xeon, whose two logical
// CPUs share the caches and the predictor. One run simulates 20 warmup
// messages and max(b.N, 50) measured ones, so it reports host time per
// simulated message over every message the run simulates (ns/sim-msg, in
// place of ns/op, which would divide by b.N alone), and simulated
// instructions per host second: the measured window's instructions per
// message, over the same messages. Its B/sim-msg and allocs/sim-msg are
// the host heap bytes and allocations of the run, from runtime.ReadMemStats
// deltas around it, over the same messages (-benchmem's B/op and
// allocs/op divide the run by b.N alone). All three per-message figures
// include building the simulated machine, so they fall as the run grows.
func BenchmarkSimulatedMessage(b *testing.B) {
	for _, id := range []machine.ConfigID{machine.TwoCPm, machine.TwoLPx} {
		b.Run(string(id), func(b *testing.B) {
			opts := harness.AONOpts{WarmupMsgs: 20, MeasureMsgs: b.N, Window: 32}
			if opts.MeasureMsgs < 50 {
				opts.MeasureMsgs = 50
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			res, err := harness.RunAON(harness.Cell{Config: id, UseCase: workload.CBR}, opts)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
			perMsg := float64(res.Raw.Get(counters.InstrRetired)) / float64(opts.MeasureMsgs)
			msgs := float64(opts.WarmupMsgs + opts.MeasureMsgs)
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/sim-msg")
			b.ReportMetric(perMsg*msgs/b.Elapsed().Seconds(), "sim-instr/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/msgs, "B/sim-msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/sim-msg")
		})
	}
}
