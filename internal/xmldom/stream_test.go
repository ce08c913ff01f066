package xmldom_test

import (
	"testing"
	"unsafe"

	"repro/internal/perf/trace"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xmldom/xmltest"
)

// sameTree asserts deep structural equality between two trees, Ord
// included (ignoring SimAddr, which only a metered parse sets).
func sameTree(t *testing.T, want, got *xmldom.Node, path string) {
	t.Helper()
	if want.Kind != got.Kind {
		t.Fatalf("%s: kind %v != %v", path, got.Kind, want.Kind)
	}
	if want.Ord != got.Ord {
		t.Fatalf("%s: ord %d != %d", path, got.Ord, want.Ord)
	}
	if want.Name != got.Name || want.Prefix() != got.Prefix() || want.Local != got.Local || want.Namespace() != got.Namespace() {
		t.Fatalf("%s: name %q/%q/%q/%q != %q/%q/%q/%q", path,
			got.Name, got.Prefix(), got.Local, got.Namespace(), want.Name, want.Prefix(), want.Local, want.Namespace())
	}
	if want.Data != got.Data {
		t.Fatalf("%s: data %q != %q", path, got.Data, want.Data)
	}
	if len(want.Attrs) != len(got.Attrs) {
		t.Fatalf("%s: %d attrs != %d", path, len(got.Attrs), len(want.Attrs))
	}
	for i := range want.Attrs {
		if want.Attrs[i] != got.Attrs[i] {
			t.Fatalf("%s: attr %d %+v != %+v", path, i, got.Attrs[i], want.Attrs[i])
		}
	}
	if len(want.Children) != len(got.Children) {
		t.Fatalf("%s: %d children != %d", path, len(got.Children), len(want.Children))
	}
	for i := range want.Children {
		sameTree(t, want.Children[i], got.Children[i], path+"/"+want.Children[i].Kind.String())
	}
}

// checkMetered parses src with two parsers of the one builder — metered
// into a trace.Counting, and unmetered — and asserts they agree on
// accept/reject and the error text and, when accepting, build equal
// trees, Ord included, with SimAddr 0 on every unmetered node and inside
// the arena on every metered one. It is also what drives the meter's
// replay over arbitrary accepted input: ParseMetered panics if its walk of
// a start or end tag does not end at the tokenizer's position, so no such
// input indexes past a tag.
func checkMetered(t *testing.T, metered, plain *xmldom.StreamParser, src []byte) {
	t.Helper()
	arena := trace.NewArena(1<<40, 1<<26)
	mTree, mErr := metered.ParseMetered(src, &trace.Counting{}, 1<<32, arena)
	pTree, pErr := plain.Parse(src)
	if (mErr == nil) != (pErr == nil) || mErr != nil && mErr.Error() != pErr.Error() {
		t.Fatalf("metered and unmetered parses disagree on %q: metered err=%v, unmetered err=%v", src, mErr, pErr)
	}
	if mErr != nil {
		return
	}
	sameTree(t, pTree, mTree, "doc")
	checkSimAddrs(t, pTree, nil)
	checkSimAddrs(t, mTree, arena)
}

// checkSimAddrs asserts every node of doc has its SimAddr inside arena, or
// is 0 when arena is nil (an unmetered tree).
func checkSimAddrs(t *testing.T, doc *xmldom.Node, arena *trace.Arena) {
	t.Helper()
	doc.Walk(func(n *xmldom.Node) bool {
		if arena == nil && n.SimAddr != 0 ||
			arena != nil && (n.SimAddr < arena.Base() || n.SimAddr >= arena.Base()+arena.Size()) {
			t.Fatalf("%v node %d: SimAddr %#x (metered: %v)", n.Kind, n.Ord, n.SimAddr, arena != nil)
		}
		return true
	})
}

// TestStreamVsDOMCorpus runs the seeded corpus through checkMetered
// deterministically (this is what CI exercises; `go test
// -fuzz=FuzzStreamVsDOM` explores further). Both parsers are reused across
// documents, so a pooled slab node that kept a SimAddr or an Ord from the
// previous document would show.
func TestStreamVsDOMCorpus(t *testing.T) {
	metered, plain := xmldom.AcquireStreamParser(), xmldom.AcquireStreamParser()
	defer metered.Release()
	defer plain.Release()
	for pass := 0; pass < 2; pass++ {
		for _, doc := range xmltest.Corpus() {
			checkMetered(t, metered, plain, doc)
		}
		// Swap roles for the second pass: a node slab metered before must
		// read unmetered now.
		metered, plain = plain, metered
	}
}

// checkOrd asserts that Ord is the pre-order index: a document-order Walk
// meets 0, 1, 2, ... with no gap and no repeat.
func checkOrd(t *testing.T, doc *xmldom.Node, builder string, src []byte) {
	t.Helper()
	next := uint32(0)
	doc.Walk(func(n *xmldom.Node) bool {
		if n.Ord != next {
			t.Fatalf("%s on %.40q: %v %q has Ord %d, want %d", builder, src, n.Kind, n.Name, n.Ord, next)
		}
		next++
		return true
	})
}

// TestOrdIsDocumentOrder checks the ordinal XPath sorts node-sets by, for
// Parse, a reused StreamParser and a metered parse over the corpus plus a
// document spanning several node slabs. An ordinal carried over from the
// previous document would show.
func TestOrdIsDocumentOrder(t *testing.T) {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	for _, src := range append(xmltest.Corpus(), workload.SOAPMessageSized(6, 32<<10)) {
		doc, err := xmldom.Parse(src)
		if err != nil {
			continue
		}
		checkOrd(t, doc, "Parse", src)
		if doc, err = new(xmldom.StreamParser).ParseMetered(src, &trace.Buffer{}, 1<<32, trace.NewArena(1<<40, 1<<26)); err != nil {
			t.Fatal(err)
		}
		checkOrd(t, doc, "ParseMetered", src)
		if doc, err = sp.Parse(src); err != nil {
			t.Fatal(err)
		}
		checkOrd(t, doc, "StreamParser.Parse", src)
	}
}

// TestNodeSizeUnchanged pins the node slab's element size: Ord must stay
// in the padding after Kind, or every pooled slab (and rss_mb) grows. The
// prefix and namespace URI are methods, not fields, for the same reason.
func TestNodeSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(xmldom.Node{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(xmldom.Node{}) = %d, want 120", got)
	}
}

// FuzzStreamVsDOM is the differential fuzzer over metered and unmetered
// parses (named for the two builders it compared before the simulator's
// was folded into StreamParser): any input on which they differ, or on
// which the meter's replay panics, is a bug.
func FuzzStreamVsDOM(f *testing.F) {
	for _, doc := range xmltest.Corpus() {
		f.Add(doc)
	}
	metered, plain := xmldom.AcquireStreamParser(), xmldom.AcquireStreamParser()
	defer metered.Release()
	defer plain.Release()
	f.Fuzz(func(t *testing.T, src []byte) {
		checkMetered(t, metered, plain, src)
	})
}
