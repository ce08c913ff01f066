// Package tracetest is test support for the packages that emit the
// micro-op stream: the golden tests of xmldom, xpath and xsd pin the
// stream through the one HashEmitter here, so their hashes are comparable.
package tracetest

import (
	"encoding/binary"
	"hash"
	"hash/fnv"

	"repro/internal/perf/trace"
)

// HashEmitter folds the micro-op stream into an FNV-1a hash, one record per
// Emitter call (zero-length bursts included). Branch PCs are hashed as the
// index of their first appearance, so the hash follows the sequence of
// sites, not where package init order placed the code regions.
type HashEmitter struct {
	h   hash.Hash64
	n   int
	pcs map[uint64]uint64
}

// NewHashEmitter returns an empty HashEmitter.
func NewHashEmitter() *HashEmitter {
	return &HashEmitter{h: fnv.New64a(), pcs: map[uint64]uint64{}}
}

// Events is the number of Emitter calls folded in so far.
func (e *HashEmitter) Events() int { return e.n }

// Sum64 is the hash of the stream so far.
func (e *HashEmitter) Sum64() uint64 { return e.h.Sum64() }

func (e *HashEmitter) op(tag byte, a, b uint64) {
	var buf [17]byte
	buf[0] = tag
	binary.LittleEndian.PutUint64(buf[1:], a)
	binary.LittleEndian.PutUint64(buf[9:], b)
	e.h.Write(buf[:])
	e.n++
}

func (e *HashEmitter) ALU(n int)                { e.op('A', uint64(n), 0) }
func (e *HashEmitter) Load(addr uint64, n int)  { e.op('L', addr, uint64(n)) }
func (e *HashEmitter) Store(addr uint64, n int) { e.op('S', addr, uint64(n)) }
func (e *HashEmitter) Branch(pc uint64, taken bool) {
	site, ok := e.pcs[pc]
	if !ok {
		site = uint64(len(e.pcs))
		e.pcs[pc] = site
	}
	t := uint64(0)
	if taken {
		t = 1
	}
	e.op('B', site, t)
}

var _ trace.Emitter = (*HashEmitter)(nil)
