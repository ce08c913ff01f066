package xmldom

import (
	"fmt"

	"repro/internal/perf/trace"
)

// Instrumentation densities: how many micro-ops a compiled scanner retires
// per byte of input for each scanning mode. These constants, together with
// each core's BranchEvents, determine the AON workloads' instruction mix; they
// are calibrated so the branch frequencies land on the paper's Table 5
// (27-28% of retired instructions on Pentium M for the XML-heavy use
// cases).
//
//   - Name scanning: a character-class check per byte (branch) plus class
//     table arithmetic.
//   - Text/space scanning: word-at-a-time delimiter search (the memchr
//     idiom): fewer branches per byte.
//   - Structural matches and decisions: one branch each at a stable PC.
const (
	nodeSimBytes = 96 // simulated footprint of a Node struct

	nameALUPerByte  = 5  // class lookup, case folding, hash accumulate
	textALUPerWord  = 11 // SWAR delimiter test, UTF-8 validation, copy-out
	spaceALUPerWord = 6
	// nameBranchEvery spaces the class-check branches: table-driven
	// scanners resolve several bytes per conditional.
	nameBranchEvery = 3
	// textBranchEvery spaces the content-scan loop branches.
	textBranchEvery = 2
)

var (
	scanCode = trace.NewCodeRegion(4096)

	pcNameLoop  = scanCode.Site()
	pcTextLoop  = scanCode.Site()
	pcSpaceLoop = scanCode.Site()
	pcMatch     = scanCode.Site()
	pcAttrMore  = scanCode.Site()
	pcAttrDup   = scanCode.Site()
	pcSelfClose = scanCode.Site()
	pcEndMatch  = scanCode.Site()
	pcAllocPC   = scanCode.Site()
	pcCmpLoop   = scanCode.Site()
)

// meter charges a StreamParser's parse, as a micro-op stream, for what an
// equivalent compiled parser does. It builds nothing: the parser makes
// every node, and the meter places each in arena (its SimAddr) and charges
// its allocation and its attach. The stream is a replay: each token is
// charged after the tokenizer has scanned it, in the order a one-pass
// scanner touches its bytes — whitespace runs, literal matches, name runs,
// text runs split at entity references, a decision branch per structural
// choice. A rejected document is charged only for the tokens before it.
type meter struct {
	em    trace.Emitter
	base  uint64       // synthetic address of src[0]
	arena *trace.Arena // synthetic heap for tree nodes
	src   []byte

	pos int // where the replay has walked to in the current token
	// lead: the tokenizer skips whitespace before the current token, as
	// it does outside the document element (inside, whitespace is text).
	lead bool
}

// ParseMetered is Parse for the simulator: the same tree, metered into em.
// base is the synthetic address of src in the simulated address space;
// every node gets a SimAddr in arena, which must not be nil (the caller
// resets it between messages).
func (p *StreamParser) ParseMetered(src []byte, em trace.Emitter, base uint64, arena *trace.Arena) (*Node, error) {
	return p.parse(src, &meter{em: em, base: base, arena: arena, src: src})
}

// nth is the position, counting from 1, of the next child of the
// innermost open element (the document when none is open).
func (p *StreamParser) nth() int {
	mark := 0
	if len(p.marks) > 0 {
		mark = p.marks[len(p.marks)-1]
	}
	return len(p.pending) - mark + 1
}

// scan charges the scanning of tok that comes before its node is made (a
// start tag up to its name; every other token whole). end is the
// tokenizer's offset just past tok.
func (m *meter) scan(tok *Token, end int) {
	pos := m.pos
	if m.lead {
		pos = m.spaceRun(pos)
	}
	switch tok.Kind {
	case TokDecl, TokProcInst, TokDoctype, TokCDATA:
		m.emitTextRun(pos, end)
	case TokComment:
		m.emitMatch(pos, len("<!--"))
		m.emitTextRun(pos, end)
	case TokText:
		m.charData(tok.Raw, pos)
	case TokStart:
		m.emitMatch(pos, 1)
		pos = m.emitNameRun(pos+1, pos+1+len(tok.Name))
	case TokEnd:
		mustMeet(m.endTag(tok, pos), end)
	}
	m.pos = pos
}

// node places n, holding dataLen bytes of character data, in the arena and
// charges its allocation and, below the document, its attach as its
// parent's nth child.
func (m *meter) node(n *Node, dataLen, nth int) {
	n.SimAddr = m.arena.Alloc(nodeSimBytes + uint64(dataLen))
	m.emitAlloc(n, dataLen)
	if n.Parent != nil {
		m.emitAttach(n.Parent, n, nth)
	}
}

// mustMeet panics unless a tag walk, which re-derives offsets from the
// token's lengths, landed where the tokenizer did: the stream (and the
// simulator's numbers) would otherwise be charged for the wrong bytes.
func mustMeet(walked, end int) {
	if walked != end {
		panic(fmt.Sprintf("xmldom: tag replay walked to offset %d, tokenizer is at %d", walked, end))
	}
}

// startTag charges the rest of start tag tok after its name — attributes,
// duplicate checks, the close — once el holds its decoded attributes.
func (m *meter) startTag(tok *Token, el *Node, end int) {
	pos := m.pos
	for i, a := range tok.Attrs {
		pos = m.spaceRun(pos)
		m.emitDecision(pcAttrMore, true)
		pos = m.emitNameRun(pos, pos+len(a.Name))
		pos = m.spaceRun(pos)
		m.emitMatch(pos, 1) // '='
		pos = m.spaceRun(pos+1) + 1
		m.charData(a.RawValue, pos)
		pos += len(a.RawValue) + 1
		for range i {
			m.emitDecision(pcAttrDup, false)
		}
		m.emitAttr(len(a.Name), len(el.Attrs[i].Value))
	}
	pos = m.spaceRun(pos)
	m.emitDecision(pcAttrMore, false)
	m.emitDecision(pcSelfClose, tok.SelfClose)
	if tok.SelfClose {
		pos += len("/>")
	} else {
		m.emitMatch(pos, 1)
		pos++
	}
	mustMeet(pos, end)
}

// endTag charges an end tag beginning at src[pos] ("</") and returns the
// offset just past it.
func (m *meter) endTag(tok *Token, pos int) int {
	pos = m.emitNameRun(pos+len("</"), pos+len("</")+len(tok.Name))
	m.emitNameCompare(pos, len(tok.Name))
	pos = m.spaceRun(pos)
	m.emitMatch(pos, 1)
	return pos + 1
}

// charData charges scanning raw — a text run or an attribute value body
// at src[pos] — as text runs split by name runs over the entity
// references.
func (m *meter) charData(raw []byte, pos int) {
	run := 0
	for i := 0; i < len(raw); {
		if raw[i] != '&' {
			i++
			continue
		}
		m.emitTextRun(pos+run, pos+i)
		_, next, _ := decodeEntityAt(raw, i)
		m.emitNameRun(pos+i, pos+next)
		i, run = next, next
	}
	m.emitTextRun(pos+run, pos+len(raw))
}

// spaceRun charges skipping the whitespace run at src[pos] (same shape as
// text scanning) and returns its end.
func (m *meter) spaceRun(pos int) int {
	end := pos
	for end < len(m.src) && isSpace(m.src[end]) {
		end++
	}
	m.emitWordRun(pos, end, spaceALUPerWord, pcSpaceLoop)
	return end
}

func (m *meter) addr(pos int) uint64 { return m.base + uint64(pos) }

// emitNameRun models table-driven name scanning over src[start:end]: a
// load per word, class arithmetic per byte, and a loop branch per few
// bytes (taken while the class check succeeds, falling out at the
// delimiter). The branch-poor, arithmetic-rich mix is what pulls the XML
// use cases' retired branch frequency below the forwarding path's, as in
// the paper's Table 5 (27-28% for SV/CBR vs 35-36% for FR on Pentium M).
// It returns end, where the caller scans on from.
func (m *meter) emitNameRun(start, end int) int {
	n := end - start // never 0: names and entity references are not empty
	m.em.Load(m.addr(start), (n+trace.WordBytes-1)/trace.WordBytes)
	m.em.ALU(n * nameALUPerByte)
	for i := 0; i < n; i += nameBranchEvery {
		m.em.Branch(pcNameLoop, i+nameBranchEvery < n)
	}
	return end
}

// emitTextRun models word-at-a-time content scanning (searching for '<'
// or '&'): a load, SWAR arithmetic and a loop branch per word.
func (m *meter) emitTextRun(start, end int) {
	m.emitWordRun(start, end, textALUPerWord, pcTextLoop)
}

func (m *meter) emitWordRun(start, end, aluPerWord int, pc uint64) {
	words := (end - start + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		m.em.Load(m.addr(start+w*trace.WordBytes), 1)
		m.em.ALU(aluPerWord)
		if w%textBranchEvery == 0 {
			m.em.Branch(pc, w+textBranchEvery < words)
		}
	}
}

// emitMatch models a short literal comparison (expect).
func (m *meter) emitMatch(pos, n int) {
	m.em.Load(m.addr(pos), 1)
	m.em.ALU(2 + n/trace.WordBytes)
	m.em.Branch(pcMatch, true)
}

// emitDecision models one data-dependent structural branch at a stable PC.
func (m *meter) emitDecision(pc uint64, taken bool) {
	m.em.ALU(1)
	m.em.Branch(pc, taken)
}

// emitNameCompare models comparing the n-byte end-tag name that ends at
// src[pos] against the open element's name (a short string compare; the
// tokenizer only hands over end tags that matched).
func (m *meter) emitNameCompare(pos, n int) {
	words := n/trace.WordBytes + 1
	m.em.Load(m.addr(pos), words)
	m.em.ALU(2 * words)
	m.em.Branch(pcEndMatch, true)
}

// emitAlloc models allocating and initializing a tree node (and copying
// its character data into the simulated heap).
func (m *meter) emitAlloc(n *Node, dataLen int) {
	m.em.ALU(30) // allocator fast path, node initialization
	m.em.Store(n.SimAddr, 6)
	if dataLen > 0 {
		words := (dataLen + trace.WordBytes - 1) / trace.WordBytes
		m.em.Store(n.SimAddr+nodeSimBytes, words)
	}
	m.em.Branch(pcAllocPC, true)
}

// emitAttach models linking a child into its parent (pointer stores plus
// the occasional slice growth).
func (m *meter) emitAttach(parent, child *Node, nth int) {
	m.em.Load(parent.SimAddr, 2)
	m.em.Store(parent.SimAddr+16, 1)
	m.em.Store(child.SimAddr+8, 1)
	m.em.ALU(4)
	m.em.Branch(pcAllocPC+4, nth&(nth-1) == 0) // grows at powers of two
}

// emitAttr models interning one attribute (hashing the name, storing the
// pair) from its name's and decoded value's lengths.
func (m *meter) emitAttr(nameLen, valueLen int) {
	m.em.ALU(nameLen + 4)
	m.em.Store(0, 0) // placeholder keeps shape explicit; no-op (N=0)
	m.em.ALU(valueLen / 2)
	m.em.Branch(pcCmpLoop, valueLen > 0)
}
