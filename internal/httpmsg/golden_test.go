package httpmsg_test

import (
	"fmt"
	"testing"

	"repro/internal/httpmsg"
	"repro/internal/perf/trace/tracetest"
	"repro/internal/workload"
)

type streamGolden struct {
	events int
	hash   uint64
}

// goldenInputs are the requests the parse stream is pinned on: every use
// case's request for seeds 1..3, a control-plane GET, every row of the
// parser's comparison table and the first request of every framing-table
// stream, refusals included (a refused request is charged for the lines
// scanned before the refusal).
func goldenInputs() (names []string, srcs [][]byte) {
	for _, uc := range append(append([]workload.UseCase{}, workload.AllUseCases...), workload.ExtendedUseCases...) {
		for seed := uint64(1); seed <= 3; seed++ {
			names = append(names, fmt.Sprintf("%s/seed%d", uc, seed))
			srcs = append(srcs, workload.HTTPRequestSeeded(int(seed), uc, workload.MessageBytes, seed))
		}
	}
	names = append(names, "get-stats")
	srcs = append(srcs, []byte("GET /stats HTTP/1.1\r\nHost: aon\r\n\r\n"))
	for i, src := range httpmsg.ParseCases {
		names = append(names, fmt.Sprintf("case%d", i))
		srcs = append(srcs, src)
	}
	for _, tc := range httpmsg.FrameCases {
		names = append(names, "frame/"+tc.Name)
		srcs = append(srcs, []byte(tc.Wire))
	}
	return names, srcs
}

// emittedGolden was recorded from the copying instrumented parser (kept,
// unmetered, as oracle_test.go), before the zero-copy parser took over
// metering: one entry per goldenInputs row. The simulator's figures
// (internal/core, EXPERIMENTS.md) are a function of this stream, so a
// change here means re-baselining them.
var emittedGolden = []streamGolden{
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{113, 0xe0b9e101f1f77779},
	{113, 0xe0b9e101f1f77779},
	{113, 0xe0b9e101f1f77779},
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{113, 0xe0b9e101f1f77779},
	{113, 0xe0b9e101f1f77779},
	{113, 0xe0b9e101f1f77779},
	{139, 0x779770d6567150db},
	{139, 0x779770d6567150db},
	{139, 0x779770d6567150db},
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{113, 0x855805998ff9a415},
	{26, 0xf4aa717235fef973},
	{70, 0x822a93d9dbb5453c},
	{26, 0x4a1be724096715d9},
	{30, 0xd7742292c817bc56},
	{32, 0xf255adf4b39a5f43},
	{7, 0x832ea4a96e10f4a0},
	{11, 0x94727f749e277f80},
	{8, 0x947d470ab3a11ab1},
	{20, 0xd82ff1b6f7b52d87},
	{20, 0x64eeb59142f24e09},
	{29, 0x7b77fbe2b4c96e75},
	{11, 0xb36d467da916c9a1},
	{44, 0x6e73026be4e65dd5},
	{29, 0xb09bce26107974a5},
	{4, 0x6f171be6287efd91},
	{33, 0x8c384b74346f2b5f},
	{25, 0x8604f47a91f48d01},
	{27049, 0x1e03b674c97c239},
	{1045, 0xfda3dbf0c736affa},
	{1053, 0x1d22611842838e41},
	{25, 0x8604f47a91f48d01},
	{43, 0x851334dc8c22d40d},
	{46, 0xdee88937dfb01108},
	{61, 0x5449f3f1095078f1},
	{58, 0x1bf39d2ace9e9c11},
	{58, 0x1bf39d2ace9e9c11},
	{44, 0x6e73026be4e65dd5},
	{52, 0x382bee4107aecffc},
	{39, 0xdf0c40bbdec2c4e},
	{44, 0x3af4f261fcf5413b},
	{44, 0x2f2195a5566335a2},
	{43, 0x851334dc8c22d40d},
	{43, 0x5c81f0040bcccc47},
	{43, 0xe5e7c48984b0222e},
	{46, 0xee6ad8c9918fc78e},
	{25, 0x8604f47a91f48d01},
	{43, 0x851334dc8c22d40d},
}

// TestEmittedStreamGolden checks that the simulator sees the same program:
// the metered request parse emits exactly the micro-op sequence the
// recorded parser emitted, on accepted and refused requests alike.
func TestEmittedStreamGolden(t *testing.T) {
	names, srcs := goldenInputs()
	for i, src := range srcs {
		em := tracetest.NewHashEmitter()
		var req httpmsg.Request
		err := httpmsg.ParseRequestMetered(src, &req, em, 1<<32)
		got := streamGolden{em.Events(), em.Sum64()}
		if i >= len(emittedGolden) {
			t.Errorf("no golden for %s (err=%v): got {%d, %#x}", names[i], err, got.events, got.hash)
			continue
		}
		if want := emittedGolden[i]; got != want {
			t.Errorf("%s: emitted {%d, %#x}, golden {%d, %#x}", names[i], got.events, got.hash, want.events, want.hash)
		}
	}
}
