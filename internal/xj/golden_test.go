package xj

import (
	"hash/fnv"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldom"
)

// goldenDocs is the workload's traffic (seeds 1..3, valid and invalid)
// plus the shapes whose bytes the rewrite could plausibly move: text split
// around children and trimmed as one string (Unicode spaces included),
// control characters, prefixed and interleaved repeats. The control
// characters are raw bytes: XML 1.0 refuses &#1; and &#31; as character
// references, and the row was recorded with those decoding to the same
// two bytes.
func goldenDocs() [][]byte {
	var docs [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		docs = append(docs,
			workload.SOAPMessageSeeded(int(seed), workload.MessageBytes, seed),
			workload.InvalidSOAPMessageSeeded(int(seed), workload.MessageBytes, seed))
	}
	for _, s := range []string{
		"<a>\u00a0\u2003 lead<b/> mid \u3000<b>x</b>tail \u0085\u2028</a>",
		"<a> \u2003<b/>\n\t\u3000</a>",
		"<a k=\"v\"> \u00a0 </a>",
		"<a>\u00a0</a>",
		"<a>x\u00a0</a>",
		"<a>\x01\x1f\"\\\r\n\t\u00e9\u007f</a>",
		`<n:a xmlns:n="u" n:k="1" k="2"><n:b/><b/><n:b>2</n:b><c/><b>3</b><!--c--><?pi x?><c><![CDATA[<raw>]]></c></n:a>`,
		`<a><b><c><d>deep</d><d/></c></b><b/></a>`,
	} {
		docs = append(docs, []byte(s))
	}
	return docs
}

// translateGolden was recorded at commit ec66e76 (strings.Builder output,
// partition/sameNamed slices), before xj.go was touched: output length and
// FNV-1a hash per goldenDocs row.
var translateGolden = []struct {
	n    int
	hash uint64
}{
	{3934, 0xcd1dcb4387ed92cf},
	{3935, 0x8b8a195b564db94b},
	{3922, 0x6ada8ed798b0c6df},
	{3923, 0x3424d6223d7ce167},
	{3997, 0x12a0eada55f188f7},
	{3998, 0x15e25ab1027287dd},
	{49, 0x9b4b957bb283a6c2},
	{16, 0xf6743e351d79d56f},
	{16, 0xfc25229b0abf8061},
	{10, 0x73c0f5330a0bc211},
	{9, 0x67830a3a8bd48fc},
	{33, 0xa3dbe6c040cd647},
	{95, 0x838be53a01e3f3ab},
	{44, 0x9177569f6aefe533},
}

func TestTranslateGolden(t *testing.T) {
	for i, src := range goldenDocs() {
		doc, err := xmldom.Parse(src)
		if err != nil {
			t.Fatalf("%.60q: %v", src, err)
		}
		out, err := Translate(doc)
		if err != nil {
			t.Fatalf("%.60q: %v", src, err)
		}
		h := fnv.New64a()
		h.Write(out)
		if i >= len(translateGolden) {
			t.Errorf("no golden for row %d (%.40q): got\n\t{%d, %#x},", i, src, len(out), h.Sum64())
			continue
		}
		if want := translateGolden[i]; len(out) != want.n || h.Sum64() != want.hash {
			t.Errorf("row %d (%.40q): got {%d, %#x}, golden {%d, %#x}\n%s", i, src, len(out), h.Sum64(), want.n, want.hash, out)
		}
	}
}
