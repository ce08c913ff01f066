package xmldom_test

import (
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/perf/trace/tracetest"
	"repro/internal/xmldom"
)

// parseGolden pins the micro-op stream ParseMetered emits for the
// accepted grammar corners the workload messages never reach. Counts and
// hashes were recorded by running this file on commit 29d6aeb (the
// recursive-descent scanner), before the scanner was replaced by a replay
// over tokenizer tokens: the simulator must see the same program.
var parseGolden = []struct {
	src    string
	events int
	hash   uint64
}{
	// Prolog and epilog: declaration, comment, DOCTYPE with an internal
	// subset, whitespace between every item, trailing comment.
	{"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- hdr -->\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n  <a/>\n<!--tail-->\n ", 102, 0x7d4cb8231120a166},
	{`<!DOCTYPE html><root/>`, 27, 0x6479973bacc96b06},
	{`<?xmlfoo?><a/>`, 35, 0x80f8679584c7fbf}, // declaration prefix-match quirk
	{"  \r\n\t<a> mixed <b>text</b> runs </a>\n ", 105, 0xd37ccd0969623d88},
	// Content: comment, PI, CDATA holding markup characters, text after.
	{`<a><!--c--><?pi data?><![CDATA[<raw&>]]>tail<!-- second comment, longer than a word --></a>`, 118, 0xae10f57ce7d31949},
	// Entities in text and in attribute values, both quote styles.
	{`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x41;</a>`, 70, 0xbf5120a10a4fe23d},
	{`<a b="&lt;v&gt;" c='x&amp;y&#65;' d="">lead &amp; mid&#x42;&lt;tail</a>`, 139, 0xdc5f3bf467380871},
	// Whitespace inside start and end tags, around '=', before '/>'.
	{"<a  b = \"1\"\n\tc\t=\t'2' ><b \n/><c ></c\n></a >", 146, 0xe45977270574a247},
	{`<a b="1"c="2"/>`, 56, 0x5c9f40436c4590c6}, // no space between attributes — accepted quirk
	// Names long enough to cross word boundaries in the end-tag compare;
	// enough siblings to cross the children-growth powers of two.
	{`<ns:envelope-element xmlns:ns="urn:u"><ns:b/><ns:b/><ns:b/><ns:b/><ns:b/>x<ns:b/>y<ns:b/><ns:b/><ns:b/></ns:envelope-element>`, 260, 0xf3c9a4430af0e643},
	{`<a xmlns="d"><b xmlns=""><c>deep</c></b></a>`, 140, 0x84880ffed31a84f7},
}

// TestParseStreamGolden checks each golden on a fresh parser, then again
// on one reused parser that parses each document unmetered first: the
// metered stream must not change, and no unmetered tree may carry a
// SimAddr, whichever parse came before.
func TestParseStreamGolden(t *testing.T) {
	reused := xmldom.AcquireStreamParser()
	defer reused.Release()
	for _, interleave := range []bool{false, true} {
		for _, g := range parseGolden {
			src := []byte(g.src)
			sp := new(xmldom.StreamParser)
			if interleave {
				sp = reused
				doc, err := sp.Parse(src)
				if err != nil {
					t.Fatalf("%q: %v", g.src, err)
				}
				checkSimAddrs(t, doc, nil)
			}
			em := tracetest.NewHashEmitter()
			// The node heap the goldens were recorded with.
			arena := trace.NewArena(1<<40, 1<<26)
			if _, err := sp.ParseMetered(src, em, 1<<32, arena); err != nil {
				t.Fatalf("%q: %v", g.src, err)
			}
			if em.Events() != g.events || em.Sum64() != g.hash {
				t.Errorf("%q (interleaved %v): emitted {%d, %#x}, golden {%d, %#x}", g.src, interleave, em.Events(), em.Sum64(), g.events, g.hash)
			}
		}
	}
}
