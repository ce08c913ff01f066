package xpath

import (
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/perf/trace/tracetest"
	"repro/internal/workload"
	"repro/internal/xmldom"
)

// exprTable is the expression set the evaluator is pinned on: the paper's
// CBR expression plus one per feature whose evaluation order could drift
// (predicates, positions, parent steps, nested //, unions).
var exprTable = []string{
	`//quantity/text()`,
	`count(//item[price > 400])`,
	`//item[2]/quantity`,
	`//item[last()]/..`,
	`/*/*//text()`,
	`//quantity/../quantity[1]`,
	`//*[quantity=1]//text()`,
	`//sku | //item/quantity | //customer`,
}

type streamGolden struct {
	events int
	hash   uint64
}

// emittedGolden was recorded at commit 38adec9 (the slice+map evaluator),
// before eval.go was touched: one row per exprTable entry, one column per
// workload seed 1..3. The simulator's figures (internal/core,
// EXPERIMENTS.md) are a function of this stream, so a change here means
// re-baselining them.
var emittedGolden = [][3]streamGolden{
	{{9493, 0xae5db71e9fef55c9}, {9656, 0x2fb9ca211eb93cdc}, {9070, 0x9c4686557d8470b3}},
	{{9557, 0x9424d453117c0f51}, {9750, 0xef0451dde6cbefe4}, {9134, 0x95ae857e28cede33}},
	{{9515, 0x6b08917928a72661}, {9674, 0x349f10a517781e2}, {9092, 0xa2eb8025df39e763}},
	{{9499, 0x69201689a791fb07}, {9662, 0x9d8508ea0f52dc0c}, {9076, 0xc7762c672594078d}},
	{{8513, 0xc315468f359d7565}, {8652, 0xf36d882f50d58898}, {8138, 0x76b0bbd92dae5dcf}},
	{{9557, 0xefa8968a0fb15ef9}, {9752, 0x3642af87e24c4f8}, {9134, 0xfbc299589c0c99ab}},
	{{11037, 0xb9d1c234fef69191}, {11366, 0xc3b125e2f9173f32}, {10534, 0x6dfc05814a20034f}},
	{{17697, 0x22b7deef76a29b6d}, {18026, 0x4089ec86e6806ac8}, {16842, 0x1f834ce87737e13b}},
}

// TestEmittedStreamGolden checks that the simulator sees the same
// program: metered parse + Eval + EvalString emit exactly the
// micro-op sequence the previous evaluator emitted.
func TestEmittedStreamGolden(t *testing.T) {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	for i, src := range exprTable {
		e := MustCompile(src)
		for seed := uint64(1); seed <= 3; seed++ {
			em := tracetest.NewHashEmitter()
			msg := workload.SOAPMessageSeeded(int(seed), workload.MessageBytes, seed)
			doc, err := sp.ParseMetered(msg, em, 1<<32, trace.NewArena(1<<40, 1<<26))
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(em)
			if _, err := ev.Eval(e, doc); err != nil {
				t.Fatalf("Eval(%q): %v", src, err)
			}
			if _, err := ev.EvalString(e, doc); err != nil {
				t.Fatalf("EvalString(%q): %v", src, err)
			}
			got := streamGolden{em.Events(), em.Sum64()}
			if i >= len(emittedGolden) {
				t.Errorf("no golden for %q seed %d: got {%d, %#x}", src, seed, got.events, got.hash)
				continue
			}
			if want := emittedGolden[i][seed-1]; got != want {
				t.Errorf("%q seed %d: emitted {%d, %#x}, golden {%d, %#x}", src, seed, got.events, got.hash, want.events, want.hash)
			}
		}
	}
}
