package xmldom_test

import (
	"testing"
	"unsafe"

	"repro/internal/perf/trace"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xmldom/xmltest"
)

// sameTree asserts deep structural equality between two builders' trees
// (ignoring SimAddr, which only the instrumented builder populates).
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

// checkDifferential runs the tokenizer's two consumers on src — the
// simulator's ParseInstrumented with a real emitter and the live
// StreamParser — and asserts they agree on accept/reject (true by
// construction: neither scans, both stop at the tokenizer's first error)
// and, when accepting, build equivalent trees, Ord included. It is also
// what drives the instrumented builder's replay over arbitrary accepted
// input: ParseInstrumented panics if its walk of a start or end tag does
// not end at the tokenizer's position, so no such input indexes past a tag.
func checkDifferential(t *testing.T, sp *xmldom.StreamParser, src []byte) {
	t.Helper()
	simTree, simErr := xmldom.ParseInstrumented(src, &trace.Counting{}, 1<<32, nil)
	liveTree, liveErr := sp.Parse(src)
	if (simErr == nil) != (liveErr == nil) {
		t.Fatalf("accept/reject mismatch on %q: instrumented err=%v, stream err=%v", src, simErr, liveErr)
	}
	if simErr != nil {
		return
	}
	sameTree(t, simTree, liveTree, "doc")
}

// TestStreamVsDOMCorpus runs the seeded corpus deterministically (this
// is what CI exercises; `go test -fuzz=FuzzStreamVsDOM` explores
// further). The single reused StreamParser also exercises slab/arena
// reset across documents.
func TestStreamVsDOMCorpus(t *testing.T) {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	for _, doc := range xmltest.Corpus() {
		checkDifferential(t, sp, doc)
	}
	// Second pass over the same corpus: a parser that mis-resets pooled
	// state produces wrong trees only on reuse.
	for _, doc := range xmltest.Corpus() {
		checkDifferential(t, sp, doc)
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
// every builder over the corpus plus a document spanning several node
// slabs. The StreamParser is reused throughout, so an ordinal carried over
// from the previous document would show.
func TestOrdIsDocumentOrder(t *testing.T) {
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	for _, src := range append(xmltest.Corpus(), workload.SOAPMessageSized(6, 32<<10)) {
		doc, err := xmldom.Parse(src)
		if err != nil {
			continue
		}
		checkOrd(t, doc, "Parse", src)
		if doc, err = xmldom.ParseInstrumented(src, &trace.Buffer{}, 1<<32, nil); err != nil {
			t.Fatal(err)
		}
		checkOrd(t, doc, "ParseInstrumented", src)
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

// FuzzStreamVsDOM is the differential fuzzer over the two tree builders:
// any input they build different trees from, or on which the instrumented
// builder's replay panics, is a bug.
func FuzzStreamVsDOM(f *testing.F) {
	for _, doc := range xmltest.Corpus() {
		f.Add(doc)
	}
	sp := xmldom.AcquireStreamParser()
	defer sp.Release()
	f.Fuzz(func(t *testing.T, src []byte) {
		checkDifferential(t, sp, src)
	})
}
