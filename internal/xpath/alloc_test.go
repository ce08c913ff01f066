package xpath

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/poison"
	"repro/internal/raceflag"
	"repro/internal/workload"
	"repro/internal/xmldom"
)

// TestEvalAllocations pins the gateway's CBR call at zero allocations: the
// routing expression on a pooled StreamParser tree, node-sets in pooled
// scratch, the result a view of the text node's Data. Eval may allocate
// once, for the caller-owned copy of the result.
func TestEvalAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	doc, err := sp.Parse(workload.SOAPMessage(0))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nil)
	e := MustCompile(`//quantity/text()`)
	var s string
	if n := testing.AllocsPerRun(200, func() { s, _ = ev.EvalString(e, doc) }); n != 0 || s != "1" {
		t.Errorf("EvalString = %q with %v allocs/run, want \"1\" with 0", s, n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = ev.EvalBool(e, doc) }); n != 0 {
		t.Errorf("EvalBool: %v allocs/run, want 0", n)
	}
	var v Value
	if n := testing.AllocsPerRun(200, func() { v, _ = ev.Eval(e, doc) }); n > 1 || len(v.Nodes) == 0 {
		t.Errorf("Eval: %d nodes with %v allocs/run, want at most 1", len(v.Nodes), n)
	}
}

// TestSharedEvaluatorConcurrent runs one Evaluator from four goroutines at
// once, each on its own pooled tree and on a shared read-only one: scratch
// must never be shared between evaluations in flight (run under -race).
func TestSharedEvaluatorConcurrent(t *testing.T) {
	ev := NewEvaluator(nil)
	shared := mustParse(t, workload.SOAPMessage(1))
	var exprs []*Expr
	var want []string
	for _, src := range exprTable {
		e := MustCompile(src)
		s, err := ev.EvalString(e, shared)
		if err != nil {
			t.Fatal(err)
		}
		exprs, want = append(exprs, e), append(want, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := xmldom.AcquireStreamParser()
			defer sp.Release()
			for i := 0; i < 50; i++ {
				own, err := sp.Parse(workload.SOAPMessage(1))
				if err != nil {
					t.Error(err)
					return
				}
				for k, e := range exprs {
					for _, doc := range []*xmldom.Node{own, shared} {
						if s, err := ev.EvalString(e, doc); err != nil || s != want[k] {
							t.Errorf("%q = %q, %v; want %q", e.Source, s, err, want[k])
							return
						}
					}
					if v, err := ev.Eval(e, own); err != nil || v.String() != want[k] {
						t.Errorf("Eval(%q) = %q, %v; want %q", e.Source, v.String(), err, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestReleasePoisonsNodeSets keeps a node-set view past its scratch's
// release, as a caller that forgot to copy would. The race build clears
// the pooled buffers on release, so the view reads nil nodes and any use
// of them panics; a default build leaves the stale pointers in place.
func TestReleasePoisonsNodeSets(t *testing.T) {
	d := mustParse(t, workload.SOAPMessage(0))
	v, s, err := NewEvaluator(nil).run(MustCompile(`//quantity`), d)
	if err != nil || len(v.Nodes) < 2 {
		t.Fatalf("//quantity: %d nodes, %v", len(v.Nodes), err)
	}
	view, kept := v.Nodes, slices.Clone(v.Nodes)
	s.release()
	for i, n := range view {
		switch {
		case poison.Enabled && n != nil:
			t.Fatalf("race build: node %d of a released node-set still reads %s %q", i, n.Kind, n.Name)
		case !poison.Enabled && n != kept[i]:
			t.Fatalf("default build: node %d of a released node-set changed", i)
		}
	}
}

// BenchmarkEvalString is the gateway's CBR lookup alone: the routing
// expression, unmetered, over the trees of 64 seeded 5 KB messages built
// as the live path builds them (slab nodes), a different tree each call.
func BenchmarkEvalString(b *testing.B) {
	var docs []*xmldom.Node
	for i := 0; i < 64; i++ {
		docs = append(docs, mustParse(b, workload.SOAPMessageSeeded(i, workload.MessageBytes, 1)))
	}
	ev := NewEvaluator(nil)
	e := MustCompile(`//quantity/text()`)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if s, err := ev.EvalString(e, docs[n%len(docs)]); err != nil || s == "" {
			b.Fatalf("EvalString = %q, %v", s, err)
		}
	}
}
