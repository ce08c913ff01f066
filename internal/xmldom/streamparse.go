package xmldom

import (
	"bytes"
	"sync"

	"repro/internal/zc"
)

// Parse parses a document into a tree nothing else refers to: a fresh,
// unpooled StreamParser over a private copy of src, so the tree outlives
// src, is never recycled, and is safe for concurrent readers. Each call
// pays for the copy and a whole nodeChunk-node slab: fine for schema
// loading, examples and tests; per-message work uses AcquireStreamParser.
func Parse(src []byte) (*Node, error) {
	return new(StreamParser).Parse(bytes.Clone(src))
}

// nodeChunk is the node-slab chunk size. Chunks are fixed-size so *Node
// pointers handed out stay valid as the slab grows (a single growing
// []Node would move nodes on reallocation).
const nodeChunk = 256

// StreamParser builds DOM trees over the streaming Tokenizer with pooled
// memory: nodes come from reusable slabs, children slices from a grow-only
// arena, and every string in the tree is a zero-copy view into either the
// source buffer or the parser's entity-decode scratch.
//
// Lifetime contract: the tree returned by Parse is valid only until the
// next Parse or Release call on the same parser, and only while the source
// buffer passed to Parse is alive and unmodified. Callers that need the
// tree to outlive those windows must copy what they keep. The gateway's
// pipeline honors this by holding the parser (and the request frame) until
// the response for the request is fully formatted.
//
// A StreamParser is not safe for concurrent use; Acquire one per worker.
type StreamParser struct {
	tz Tokenizer

	chunks [][]Node // fixed-size node slabs (pointers stay valid)
	ci, ni int      // next free node: chunks[ci][ni]

	kids    []*Node // grow-only children arena; claimed as capped subslices
	pending []*Node // completed siblings awaiting their parent's end tag
	marks   []int   // per-open-element start index into pending
	open    []*Node // open element stack (parallels the tokenizer's)
	scratch []byte  // entity-decode output; views into it live in the tree
}

var streamPool = sync.Pool{New: func() any { return new(StreamParser) }}

// AcquireStreamParser returns a pooled parser. Release it when the tree
// it produced is no longer needed.
func AcquireStreamParser() *StreamParser {
	return streamPool.Get().(*StreamParser)
}

// Release returns the parser (and the tree memory of its last Parse) to
// the pool. The last tree is invalid after this call.
func (p *StreamParser) Release() {
	streamPool.Put(p)
}

// alloc hands out the next slab node, reusing the node's previous Attrs
// backing array. Nodes are allocated in document order, so the slab index
// is the node's Ord.
func (p *StreamParser) alloc(kind NodeKind) *Node {
	if p.ci == len(p.chunks) {
		p.chunks = append(p.chunks, make([]Node, nodeChunk))
	}
	n := &p.chunks[p.ci][p.ni]
	ord := uint32(p.ci*nodeChunk + p.ni)
	p.ni++
	if p.ni == nodeChunk {
		p.ci++
		p.ni = 0
	}
	attrs := n.Attrs[:0]
	*n = Node{Kind: kind, Ord: ord, Attrs: attrs}
	return n
}

// claim copies a completed sibling run into the children arena and
// returns a capped subslice (so a consumer appending to Children cannot
// scribble over the next claim).
func (p *StreamParser) claim(c []*Node) []*Node {
	if len(c) == 0 {
		return nil
	}
	start := len(p.kids)
	p.kids = append(p.kids, c...)
	end := len(p.kids)
	return p.kids[start:end:end]
}

// decode resolves entity references in raw into the scratch slab and
// returns a view of the decoded bytes. The tokenizer already validated
// every reference, so decodeEntityAt cannot fail here.
func (p *StreamParser) decode(raw []byte) string {
	start := len(p.scratch)
	run := 0
	for i := 0; i < len(raw); {
		if raw[i] == '&' {
			p.scratch = append(p.scratch, raw[run:i]...)
			s, next, _ := decodeEntityAt(raw, i)
			p.scratch = append(p.scratch, s...)
			i = next
			run = i
			continue
		}
		i++
	}
	p.scratch = append(p.scratch, raw[run:]...)
	return zc.String(p.scratch[start:])
}

func (p *StreamParser) top(doc *Node) *Node {
	if len(p.open) > 0 {
		return p.open[len(p.open)-1]
	}
	return doc
}

// Parse builds a DOM tree from src without copying character data: node
// Data/Name/Attr strings are views into src or the parser's scratch,
// subject to the lifetime contract above. What it accepts is whatever the
// Tokenizer accepts; an empty text or CDATA run makes no node (XPath has
// no empty text nodes).
func (p *StreamParser) Parse(src []byte) (*Node, error) {
	p.ci, p.ni = 0, 0
	p.kids = p.kids[:0]
	p.pending = p.pending[:0]
	p.marks = p.marks[:0]
	p.open = p.open[:0]
	p.scratch = p.scratch[:0]
	p.tz.Reset(src)

	doc := p.alloc(Document)
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case TokEOF:
			doc.Children = p.claim(p.pending)
			if doc.DocumentElement() == nil {
				return nil, &parseError{Offset: len(src), Msg: "no document element"}
			}
			return doc, nil

		case TokStart:
			n := p.alloc(Element)
			n.Name = zc.String(tok.Name)
			n.Prefix, n.Local = SplitName(n.Name)
			n.Parent = p.top(doc)
			for _, a := range tok.Attrs {
				val := zc.String(a.RawValue)
				if a.HasEntity {
					val = p.decode(a.RawValue)
				}
				n.Attrs = append(n.Attrs, Attr{Name: zc.String(a.Name), Value: val})
			}
			n.NS = lookupNS(n, n.Prefix)
			if tok.SelfClose {
				p.pending = append(p.pending, n)
			} else {
				p.open = append(p.open, n)
				p.marks = append(p.marks, len(p.pending))
			}

		case TokEnd:
			n := p.open[len(p.open)-1]
			mark := p.marks[len(p.marks)-1]
			p.open = p.open[:len(p.open)-1]
			p.marks = p.marks[:len(p.marks)-1]
			n.Children = p.claim(p.pending[mark:])
			p.pending = append(p.pending[:mark], n)

		case TokText, TokCDATA:
			if len(tok.Raw) == 0 {
				continue
			}
			n := p.alloc(Text)
			if tok.HasEntity {
				n.Data = p.decode(tok.Raw)
			} else {
				n.Data = zc.String(tok.Raw)
			}
			n.Parent = p.top(doc)
			p.pending = append(p.pending, n)

		case TokComment:
			n := p.alloc(Comment)
			n.Data = zc.String(tok.Raw)
			n.Parent = p.top(doc)
			p.pending = append(p.pending, n)

		case TokProcInst, TokDecl:
			n := p.alloc(ProcInst)
			n.Data = zc.String(tok.Raw)
			n.Parent = p.top(doc)
			p.pending = append(p.pending, n)

		case TokDoctype:
			// Skipped, matching the DOM parser (no node).
		}
	}
}
