package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// oracleSOAPMessageSeeded is the fmt-based generator SOAPMessageSeeded
// replaced, kept as the reference its output must equal byte for byte.
func oracleSOAPMessageSeeded(i, size int, seed uint64) []byte {
	r := rng(uint64(i)*2654435761 + 88172645463325252 + seed*0x9E3779B97F4A7C15)
	r.next()

	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` + "\n")
	fmt.Fprintf(&b, "<soap:Header><transactionID>txn-%08d</transactionID><timestamp>2007-03-%02d</timestamp></soap:Header>\n", i, 1+r.intn(28))
	b.WriteString("<soap:Body>\n")
	fmt.Fprintf(&b, `<purchaseOrder id="po-%06d">`+"\n", i)
	fmt.Fprintf(&b, "<customer>%s</customer>\n", customers[r.intn(len(customers))])
	fmt.Fprintf(&b, "<orderDate>2007-%02d-%02d</orderDate>\n", 1+r.intn(12), 1+r.intn(28))

	items := 2 + r.intn(4)
	for k := 0; k < items; k++ {
		qty := 1 + r.intn(5)
		if k == 0 {
			if i%2 == 0 {
				qty = 1
			} else {
				qty = 2 + r.intn(4)
			}
		}
		fmt.Fprintf(&b, "<item><sku>SKU-%04d</sku><quantity>%d</quantity><price>%d.%02d</price><description>%s %s</description></item>\n",
			r.intn(10000), qty, 1+r.intn(500), r.intn(100),
			fillerWords[r.intn(len(fillerWords))], fillerWords[r.intn(len(fillerWords))])
	}

	const close = "</purchaseOrder>\n</soap:Body>\n</soap:Envelope>\n"
	first := true
	for first || b.Len() < size-len(close)-40 {
		first = false
		b.WriteString("<filler>")
		for b.Len() < size-len(close)-60 {
			b.WriteString(fillerWords[r.intn(len(fillerWords))])
			b.WriteByte(' ')
			if r.intn(6) == 0 {
				break
			}
		}
		b.WriteString("</filler>\n")
	}
	b.WriteString(close)
	return []byte(b.String())
}

// The generator grid the golden hash and the oracle comparison cover.
var (
	gridSizes = []int{0, 1 << 10, MessageBytes, 64 << 10}
	gridSeeds = []uint64{0, 1, 7}
	gridMsgs  = 600
)

// generatorGolden is the SHA-256 of every request and invalid message over
// the grid, recorded from the fmt-based generator: a faster generator must
// hand the gateway, the benchmark and the simulator the same bytes.
const generatorGolden = "affedb183f9201d45467e390382cbb644b78ce2d7eb3b61e7dec14c3ca1b1fb7"

// TestGeneratorGolden pins the bytes of HTTPRequestSeeded for every use
// case, and of InvalidSOAPMessageSeeded, over the grid.
func TestGeneratorGolden(t *testing.T) {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	ucs := append(append([]UseCase{}, AllUseCases...), ExtendedUseCases...)
	for _, seed := range gridSeeds {
		for _, size := range gridSizes {
			for i := 0; i < gridMsgs; i++ {
				for _, uc := range ucs {
					put(HTTPRequestSeeded(i, uc, size, seed))
				}
				put(InvalidSOAPMessageSeeded(i, size, seed))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorGolden {
		t.Fatalf("generator grid hashes to %s, golden %s", got, generatorGolden)
	}
}

// TestGeneratorMatchesOracle compares SOAPMessageSeeded with the fmt-based
// oracle over the grid, plus indices whose zero-padded fields carry a sign
// or overflow their width.
func TestGeneratorMatchesOracle(t *testing.T) {
	msgs := []int{-1, -7, -123456789, 99999999, 100000000, 1 << 40, -(1 << 62)}
	for i := 0; i < gridMsgs; i++ {
		msgs = append(msgs, i)
	}
	for _, seed := range gridSeeds {
		for _, size := range append(gridSizes, -5, 100, 1500, 1537) {
			for _, i := range msgs {
				if got, want := SOAPMessageSeeded(i, size, seed), oracleSOAPMessageSeeded(i, size, seed); !bytes.Equal(got, want) {
					t.Fatalf("SOAPMessageSeeded(%d, %d, %d) differs from the oracle:\n got %q\nwant %q", i, size, seed, got, want)
				}
			}
		}
	}
}

// TestGeneratorAllocs pins the generator's allocations: one buffer per
// message, invalid or not, and one per request of every use case but
// AUTH (whose MAC is hex-encoded), a DPI request carrying a signature
// (index 4) included.
func TestGeneratorAllocs(t *testing.T) {
	for _, size := range gridSizes {
		if n := testing.AllocsPerRun(20, func() { SOAPMessageSeeded(7, size, 3) }); n != 1 {
			t.Errorf("SOAPMessageSeeded at %d bytes: %v allocs, want 1", size, n)
		}
		if n := testing.AllocsPerRun(20, func() { InvalidSOAPMessageSeeded(7, size, 3) }); n != 1 {
			t.Errorf("InvalidSOAPMessageSeeded at %d bytes: %v allocs, want 1", size, n)
		}
		for _, uc := range []UseCase{FR, CBR, SV, XJ, DPI} {
			for _, i := range []int{DirtyEvery - 1, DirtyEvery} {
				if n := testing.AllocsPerRun(20, func() { HTTPRequestSeeded(i, uc, size, 3) }); n != 1 {
					t.Errorf("HTTPRequestSeeded(%d, %v) at %d bytes: %v allocs, want 1", i, uc, size, n)
				}
			}
		}
	}
}

var benchSink []byte

// BenchmarkSOAPMessageSeeded generates 5 KB messages, a different index
// each call so the item and filler counts vary as in a workload pool.
func BenchmarkSOAPMessageSeeded(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(MessageBytes)
	for n := 0; n < b.N; n++ {
		benchSink = SOAPMessageSeeded(n%512, MessageBytes, 1)
	}
}
