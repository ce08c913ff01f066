// Package wcrypto implements the cryptographic workload kernel the
// paper's future work names ("crypto functions", Section 6): SHA-1 and
// HMAC-SHA1, written from scratch so the real compression-function
// control flow can be instrumented into a micro-op stream. Message
// authentication (WS-Security style) is the fifth use case of the XML
// server application: pure register-pressure ALU work with a small
// working set — the most CPU-bound point on the paper's spectrum, beyond
// even SV.
package wcrypto

import (
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/perf/trace"
)

// Size is the SHA-1 digest length in bytes.
const Size = 20

// BlockSize is the SHA-1 block length in bytes.
const BlockSize = 64

var (
	shaCode    = trace.NewCodeRegion(512)
	pcBlock    = shaCode.Site()
	pcRound    = shaCode.Site()
	pcPadCheck = shaCode.Site()
	pcHMACKey  = shaCode.Site()
)

// Digest is a SHA-1 hash state.
type Digest struct {
	h   [5]uint32
	len uint64
	buf [BlockSize]byte
	n   int

	em   trace.Emitter
	base uint64
}

// New returns an uninstrumented SHA-1 digest.
func New() *Digest { return NewInstrumented(trace.Nop{}, 0) }

// NewInstrumented returns a digest that emits the compression function's
// micro-op stream to em; base is the synthetic address of the input data.
func NewInstrumented(em trace.Emitter, base uint64) *Digest {
	d := &Digest{em: em, base: base}
	d.Reset()
	return d
}

// Reset reinitializes the hash state.
func (d *Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.len = 0
	d.n = 0
}

// Write absorbs data (io.Writer-compatible signature).
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	off := 0
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		off += c
		if d.n == BlockSize {
			d.block(d.buf[:], d.base)
			d.n = 0
		}
	}
	for off+BlockSize <= len(p) {
		d.block(p[off:off+BlockSize], d.base+uint64(off))
		off += BlockSize
	}
	if off < len(p) {
		d.n = copy(d.buf[:], p[off:])
	}
	return n, nil
}

// Sum finalizes a copy of the state and returns the digest appended to in.
func (d *Digest) Sum(in []byte) []byte {
	dd := *d
	dd.pad()
	var out [Size]byte
	for i, v := range dd.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return append(in, out[:]...)
}

func (d *Digest) pad() {
	bits := d.len * 8
	d.em.Branch(pcPadCheck, d.n >= 56)
	// The last one or two blocks, built on the stack: the buffered tail,
	// 0x80, zeros, and the message length in bits.
	var msg [BlockSize * 2]byte
	n := BlockSize
	if d.n >= 56 {
		n = 2 * BlockSize
	}
	copy(msg[:], d.buf[:d.n])
	msg[d.n] = 0x80
	binary.BigEndian.PutUint64(msg[n-8:], bits)
	for off := 0; off < n; off += BlockSize {
		d.block(msg[off:off+BlockSize], d.base)
	}
	d.n = 0
}

// block runs the SHA-1 compression function on one 64-byte block,
// emitting its instruction stream: 16 word loads, the 64-entry message
// schedule, and 80 rounds of ~10 ALU operations with the round-type
// branches a compiled implementation retires.
func (d *Digest) block(p []byte, simAddr uint64) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	d.em.Load(simAddr, 8) // 64 bytes of input
	d.em.ALU(16 * 2)      // byte-swaps
	for i := 16; i < 80; i++ {
		v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = v<<1 | v>>31
	}
	d.em.ALU(64 * 5) // message schedule

	a, b, c, dd, e := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & dd)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ dd
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & dd) | (c & dd)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ dd
			k = 0xCA62C1D6
		}
		t := (a<<5 | a>>27) + f + e + k + w[i]
		e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
		d.em.ALU(10)
		if i%20 == 19 {
			d.em.Branch(pcRound, i != 79) // round-group boundary
		}
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
	d.em.ALU(5)
	d.em.Branch(pcBlock, true)
}

// Sum1 computes the SHA-1 of data in one call.
func Sum1(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	d.Sum(out[:0])
	return out
}

// HexSum1 returns the hex-encoded SHA-1 of data.
func HexSum1(data []byte) string {
	s := Sum1(data)
	return hex.EncodeToString(s[:])
}

// EqualHex reports whether claimed is mac written in hex, in either case
// — the check of a MAC carried in a header. The claim is decoded into a
// stack array and compared in constant time, so the check allocates
// nothing and its timing says nothing about how much of a forgery was
// right.
func EqualHex(mac [Size]byte, claimed string) bool {
	var src [2 * Size]byte
	var want [Size]byte
	if len(claimed) != len(src) {
		return false
	}
	copy(src[:], claimed)
	if _, err := hex.Decode(want[:], src[:]); err != nil {
		return false
	}
	return subtle.ConstantTimeCompare(mac[:], want[:]) == 1
}

// HMAC computes HMAC-SHA1(key, data), optionally instrumented.
func HMAC(key, data []byte, em trace.Emitter, base uint64) [Size]byte {
	if em == nil {
		em = trace.Nop{}
	}
	var k [BlockSize]byte
	em.Branch(pcHMACKey, len(key) > BlockSize)
	if len(key) > BlockSize {
		sum := Sum1(key)
		copy(k[:], sum[:])
	} else {
		copy(k[:], key)
	}
	var ipad, opad [BlockSize]byte
	for i := range k {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	em.ALU(BlockSize / 4)

	inner := NewInstrumented(em, base)
	inner.Write(ipad[:])
	inner.Write(data)
	var innerSum [Size]byte
	inner.Sum(innerSum[:0])

	outer := NewInstrumented(em, base)
	outer.Write(opad[:])
	outer.Write(innerSum[:])
	var out [Size]byte
	outer.Sum(out[:0])
	return out
}
