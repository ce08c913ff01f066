package repro

import (
	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

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
