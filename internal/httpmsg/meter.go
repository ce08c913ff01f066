package httpmsg

import "repro/internal/perf/trace"

var (
	httpCode    = trace.NewCodeRegion(2048)
	pcLineScan  = httpCode.Site()
	pcHdrEnd    = httpCode.Site()
	pcHdrColon  = httpCode.Site()
	pcMethodOK  = httpCode.Site()
	pcClenFound = httpCode.Site()
)

// meter charges a request parse, as a micro-op stream, for what an
// equivalent compiled parser does: a word-at-a-time scan per line, the
// request-line split, one decision branch per structural choice. The
// parse charges a non-nil meter as it goes (parse, zerocopy.go), so the
// live parse and the simulator's run the same code; a refused request is
// charged for what was scanned before the refusal.
type meter struct {
	em   trace.Emitter
	base uint64 // synthetic address of src[0]
}

// ParseRequestMetered is ParseRequestInto for the simulator: the same
// parse, metered into em. base is the synthetic address of src in the
// simulated address space.
func ParseRequestMetered(src []byte, req *Request, em trace.Emitter, base uint64) error {
	return parse(src, req, true, &meter{em: em, base: base})
}

// line charges scanning the line src[start:next] up to its LF: a load,
// the delimiter test and a loop branch per word.
func (m *meter) line(start, next int) {
	words := (next - start + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		m.em.Load(m.base+uint64(start+w*trace.WordBytes), 1)
		m.em.ALU(2)
		m.em.Branch(pcLineScan, w+1 < words)
	}
}
