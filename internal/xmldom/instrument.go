package xmldom

import (
	"fmt"
	"strings"

	"repro/internal/perf/trace"
)

// Instrumentation densities: how many micro-ops a compiled scanner retires
// per byte of input for each scanning mode. These constants, together with
// the codegen profiles, determine the AON workloads' instruction mix; they
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

// instrParser is the simulator's tree builder: a Tokenizer consumer that builds
// a heap tree and charges, as a micro-op stream, for the scanning an
// equivalent compiled parser does. It decides nothing about the grammar.
type instrParser struct {
	tz  Tokenizer
	ord uint32 // nodes created so far: the next node's Ord

	em    trace.Emitter
	base  uint64       // synthetic address of src[0]
	arena *trace.Arena // synthetic heap for tree nodes
}

// ParseInstrumented parses a document while emitting the equivalent
// micro-op stream to em. base is the synthetic address of src in the
// simulated address space; arena provides node placement (nil allocates a
// private scratch arena, which keeps concurrent parses from sharing
// allocator state). The tree is heap nodes holding copies of src's bytes.
// The stream is a replay: each token is charged after the tokenizer has
// scanned it, in the order a one-pass scanner touches its bytes —
// whitespace runs, literal matches, name runs, text runs split at entity
// references, a decision branch per structural choice. A rejected document
// is charged only for the tokens before the bad one.
func ParseInstrumented(src []byte, em trace.Emitter, base uint64, arena *trace.Arena) (*Node, error) {
	if arena == nil {
		arena = trace.NewArena(1<<40, 1<<26)
	}
	p := &instrParser{em: em, base: base, arena: arena}
	p.tz.Reset(src)
	doc := p.newNode(Document, "")
	open := doc // innermost open element
	for {
		// Outside the document element the tokenizer skips whitespace
		// before the token; inside, whitespace is text.
		pos, lead := p.tz.pos, p.tz.phase != phContent
		tok, err := p.tz.Next()
		if err != nil {
			return nil, err
		}
		end := p.tz.pos
		if lead {
			pos = p.spaceRun(pos)
		}
		switch tok.Kind {
		case TokEOF:
			return doc, nil
		case TokDecl, TokProcInst:
			p.emitTextRun(pos, end)
			p.attach(open, p.newNode(ProcInst, string(tok.Raw)))
		case TokDoctype:
			p.emitTextRun(pos, end)
		case TokComment:
			p.emitMatch(pos, len("<!--"))
			p.emitTextRun(pos, end)
			p.attach(open, p.newNode(Comment, string(tok.Raw)))
		case TokCDATA:
			p.emitTextRun(pos, end)
			if len(tok.Raw) > 0 {
				p.attach(open, p.newNode(Text, string(tok.Raw)))
			}
		case TokText:
			p.attach(open, p.newNode(Text, p.charData(tok.Raw, pos)))
		case TokStart:
			el, walked := p.startTag(tok, pos, open)
			mustMeet(walked, end)
			if !tok.SelfClose {
				open = el
			}
		case TokEnd:
			mustMeet(p.endTag(tok, pos), end)
			open = open.Parent
		}
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

func (p *instrParser) newNode(kind NodeKind, data string) *Node {
	n := &Node{Kind: kind, Ord: p.ord, Data: data}
	p.ord++
	n.SimAddr = p.arena.Alloc(nodeSimBytes + uint64(len(data)))
	p.emitAlloc(n, len(data))
	return n
}

func (p *instrParser) attach(parent, child *Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
	p.emitAttach(parent, child)
}

// startTag charges a start tag beginning at src[pos] ('<'), builds the
// element under parent and returns it with the offset just past the tag.
func (p *instrParser) startTag(tok *Token, pos int, parent *Node) (*Node, int) {
	p.emitMatch(pos, 1)
	pos = p.emitNameRun(pos+1, pos+1+len(tok.Name))
	el := p.newNode(Element, "")
	el.Name = string(tok.Name)
	_, el.Local = SplitName(el.Name)
	p.attach(parent, el)
	for _, a := range tok.Attrs {
		pos = p.spaceRun(pos)
		p.emitDecision(pcAttrMore, true)
		pos = p.emitNameRun(pos, pos+len(a.Name))
		pos = p.spaceRun(pos)
		p.emitMatch(pos, 1) // '='
		pos = p.spaceRun(pos+1) + 1
		val := p.charData(a.RawValue, pos)
		pos += len(a.RawValue) + 1
		for range el.Attrs {
			p.emitDecision(pcAttrDup, false)
		}
		name := string(a.Name)
		el.Attrs = append(el.Attrs, Attr{Name: name, Value: val})
		p.emitAttr(name, val)
	}
	pos = p.spaceRun(pos)
	p.emitDecision(pcAttrMore, false)
	p.emitDecision(pcSelfClose, tok.SelfClose)
	if tok.SelfClose {
		return el, pos + len("/>")
	}
	p.emitMatch(pos, 1)
	return el, pos + 1
}

// endTag charges an end tag beginning at src[pos] ("</") and returns the
// offset just past it.
func (p *instrParser) endTag(tok *Token, pos int) int {
	pos = p.emitNameRun(pos+len("</"), pos+len("</")+len(tok.Name))
	p.emitNameCompare(pos, len(tok.Name))
	pos = p.spaceRun(pos)
	p.emitMatch(pos, 1)
	return pos + 1
}

// charData charges scanning raw — a text run or an attribute value body
// at src[pos] — as text runs split by name runs over the entity
// references, and returns it decoded.
func (p *instrParser) charData(raw []byte, pos int) string {
	var b strings.Builder
	run := 0
	for i := 0; i < len(raw); {
		if raw[i] != '&' {
			i++
			continue
		}
		p.emitTextRun(pos+run, pos+i)
		b.Write(raw[run:i])
		s, next, _ := decodeEntityAt(raw, i)
		p.emitNameRun(pos+i, pos+next)
		b.WriteString(s)
		i, run = next, next
	}
	p.emitTextRun(pos+run, pos+len(raw))
	b.Write(raw[run:])
	return b.String()
}

// spaceRun charges skipping the whitespace run at src[pos] (same shape as
// text scanning) and returns its end.
func (p *instrParser) spaceRun(pos int) int {
	end := pos
	for end < len(p.tz.src) && isSpace(p.tz.src[end]) {
		end++
	}
	p.emitWordRun(pos, end, spaceALUPerWord, pcSpaceLoop)
	return end
}

func (p *instrParser) addr(pos int) uint64 { return p.base + uint64(pos) }

// emitNameRun models table-driven name scanning over src[start:end]: a
// load per word, class arithmetic per byte, and a loop branch per few
// bytes (taken while the class check succeeds, falling out at the
// delimiter). The branch-poor, arithmetic-rich mix is what pulls the XML
// use cases' retired branch frequency below the forwarding path's, as in
// the paper's Table 5 (27-28% for SV/CBR vs 35-36% for FR on Pentium M).
// It returns end, where the caller scans on from.
func (p *instrParser) emitNameRun(start, end int) int {
	n := end - start // never 0: names and entity references are not empty
	p.em.Load(p.addr(start), (n+trace.WordBytes-1)/trace.WordBytes)
	p.em.ALU(n * nameALUPerByte)
	for i := 0; i < n; i += nameBranchEvery {
		p.em.Branch(pcNameLoop, i+nameBranchEvery < n)
	}
	return end
}

// emitTextRun models word-at-a-time content scanning (searching for '<'
// or '&'): a load, SWAR arithmetic and a loop branch per word.
func (p *instrParser) emitTextRun(start, end int) {
	p.emitWordRun(start, end, textALUPerWord, pcTextLoop)
}

func (p *instrParser) emitWordRun(start, end, aluPerWord int, pc uint64) {
	words := (end - start + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		p.em.Load(p.addr(start+w*trace.WordBytes), 1)
		p.em.ALU(aluPerWord)
		if w%textBranchEvery == 0 {
			p.em.Branch(pc, w+textBranchEvery < words)
		}
	}
}

// emitMatch models a short literal comparison (expect).
func (p *instrParser) emitMatch(pos, n int) {
	p.em.Load(p.addr(pos), 1)
	p.em.ALU(2 + n/trace.WordBytes)
	p.em.Branch(pcMatch, true)
}

// emitDecision models one data-dependent structural branch at a stable PC.
func (p *instrParser) emitDecision(pc uint64, taken bool) {
	p.em.ALU(1)
	p.em.Branch(pc, taken)
}

// emitNameCompare models comparing the n-byte end-tag name that ends at
// src[pos] against the open element's name (a short string compare; the
// tokenizer only hands over end tags that matched).
func (p *instrParser) emitNameCompare(pos, n int) {
	words := n/trace.WordBytes + 1
	p.em.Load(p.addr(pos), words)
	p.em.ALU(2 * words)
	p.em.Branch(pcEndMatch, true)
}

// emitAlloc models allocating and initializing a tree node (and copying
// its character data into the simulated heap).
func (p *instrParser) emitAlloc(n *Node, dataLen int) {
	p.em.ALU(30) // allocator fast path, node initialization
	p.em.Store(n.SimAddr, 6)
	if dataLen > 0 {
		words := (dataLen + trace.WordBytes - 1) / trace.WordBytes
		p.em.Store(n.SimAddr+nodeSimBytes, words)
	}
	p.em.Branch(pcAllocPC, true)
}

// emitAttach models linking a child into its parent (pointer stores plus
// the occasional slice growth).
func (p *instrParser) emitAttach(parent, child *Node) {
	p.em.Load(parent.SimAddr, 2)
	p.em.Store(parent.SimAddr+16, 1)
	p.em.Store(child.SimAddr+8, 1)
	p.em.ALU(4)
	grow := len(parent.Children)&(len(parent.Children)-1) == 0 // power of two
	p.em.Branch(pcAllocPC+4, grow)
}

// emitAttr models interning one attribute (hashing the name, storing the
// pair).
func (p *instrParser) emitAttr(name, value string) {
	p.em.ALU(len(name) + 4)
	p.em.Store(0, 0) // placeholder keeps shape explicit; no-op (N=0)
	p.em.ALU(len(value) / 2)
	p.em.Branch(pcCmpLoop, len(value) > 0)
}
