package httpmsg_test

import (
	"testing"

	"repro/internal/httpmsg"
	"repro/internal/perf/trace"
	"repro/internal/workload"
)

// BenchmarkParseRequestInto parses the 5 KB CBR request into a reused
// Request: unmetered as the gateway runs it, and metered (into a counting
// emitter) as the simulator does.
func BenchmarkParseRequestInto(b *testing.B) {
	src := workload.HTTPRequestSeeded(1, workload.CBR, workload.MessageBytes, 1)
	b.Run("unmetered", func(b *testing.B) {
		var req httpmsg.Request
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := httpmsg.ParseRequestInto(src, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metered", func(b *testing.B) {
		var req httpmsg.Request
		var c trace.Counting
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := httpmsg.ParseRequestMetered(src, &req, &c, 1<<32); err != nil {
				b.Fatal(err)
			}
		}
	})
}
