package xmldom

import (
	"strings"
	"testing"

	"repro/internal/perf/trace"
)

// Tests for the meter's structural properties: the op stream must reflect
// the input faithfully enough to drive the simulator.

func TestBranchOutcomesAreMixed(t *testing.T) {
	src := []byte(`<root a="1"><x>text with words</x><y/><z attr="v">more</z></root>`)
	var c trace.Counting
	if _, err := new(StreamParser).ParseMetered(src, &c, 0, trace.NewArena(1<<30, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if c.Taken == 0 || c.Taken == c.Branches {
		t.Fatalf("degenerate outcomes: taken=%d of %d", c.Taken, c.Branches)
	}
}

func TestBranchFractionInXMLRange(t *testing.T) {
	// The calibrated abstract branch fraction of parsing must sit in the
	// range that maps (through the retirement profiles) onto the paper's
	// Table 5: roughly 4-9% abstract.
	src := []byte(`<r>` + strings.Repeat(`<item><sku>SKU-1234</sku><quantity>3</quantity><note>some filler text here</note></item>`, 30) + `</r>`)
	var c trace.Counting
	if _, err := new(StreamParser).ParseMetered(src, &c, 0, trace.NewArena(1<<30, 1<<20)); err != nil {
		t.Fatal(err)
	}
	frac := float64(c.Branches) / float64(c.Instr)
	if frac < 0.03 || frac > 0.12 {
		t.Fatalf("abstract branch fraction %.3f outside the calibrated window", frac)
	}
	// And it must be load-bearing but ALU-dominated.
	if c.Loads == 0 || c.Loads > c.Instr/2 {
		t.Fatalf("load fraction off: %d of %d", c.Loads, c.Instr)
	}
}

func TestInstructionDensityPerByte(t *testing.T) {
	// Parsing cost must scale with input size at a plausible density
	// (the calibration target is ~4-8 abstract instructions per byte).
	small := []byte(`<r>` + strings.Repeat(`<a>xy</a>`, 20) + `</r>`)
	big := []byte(`<r>` + strings.Repeat(`<a>xy</a>`, 200) + `</r>`)
	var cs, cb trace.Counting
	arena := trace.NewArena(1<<30, 1<<22)
	if _, err := new(StreamParser).ParseMetered(small, &cs, 0, arena); err != nil {
		t.Fatal(err)
	}
	if _, err := new(StreamParser).ParseMetered(big, &cb, 0, arena); err != nil {
		t.Fatal(err)
	}
	densS := float64(cs.Instr) / float64(len(small))
	densB := float64(cb.Instr) / float64(len(big))
	// Structure-dense documents (tag per ~9 bytes) run hotter per byte
	// than the AONBench text-heavy messages (~5 instr/byte).
	if densB < 2 || densB > 25 {
		t.Fatalf("density %.1f instr/byte outside plausible range", densB)
	}
	if densB > densS*1.5 || densS > densB*1.5 {
		t.Fatalf("density not stable: %.1f vs %.1f", densS, densB)
	}
}

func TestLoadsWalkTheInputBuffer(t *testing.T) {
	src := []byte(`<root><child>payload text</child></root>`)
	base := uint64(0x7000_0000)
	buf := trace.NewBuffer(4096)
	if _, err := new(StreamParser).ParseMetered(src, buf, base, trace.NewArena(1<<30, 1<<20)); err != nil {
		t.Fatal(err)
	}
	inBuffer := 0
	for _, op := range buf.Ops {
		if op.Kind == trace.Load && op.Addr >= base && op.Addr < base+uint64(len(src))+8 {
			inBuffer++
		}
	}
	if inBuffer == 0 {
		t.Fatal("no loads touch the input buffer")
	}
}

func TestNodeAllocationsUseArena(t *testing.T) {
	arena := trace.NewArena(0x5_0000_0000, 1<<20)
	doc, err := new(StreamParser).ParseMetered([]byte(`<a><b/><c>t</c></a>`), &trace.Counting{}, 0, arena)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	doc.Walk(func(n *Node) bool {
		if n.SimAddr < 0x5_0000_0000 || n.SimAddr >= 0x5_0000_0000+1<<20 {
			t.Fatalf("node %v allocated at %#x outside arena", n.Kind, n.SimAddr)
		}
		count++
		return true
	})
	if arena.Used() == 0 {
		t.Fatal("arena untouched")
	}
	if count < 5 {
		t.Fatalf("only %d nodes", count)
	}
}

func TestStablePCsAcrossParses(t *testing.T) {
	// The same document parsed twice must emit branches at the same PCs
	// (static code identity is what lets predictors learn).
	collect := func() map[uint64]bool {
		buf := trace.NewBuffer(4096)
		if _, err := new(StreamParser).ParseMetered([]byte(`<a x="1"><b>t</b></a>`), buf, 0, trace.NewArena(1<<30, 1<<20)); err != nil {
			t.Fatal(err)
		}
		pcs := map[uint64]bool{}
		for _, op := range buf.Ops {
			if op.Kind == trace.Branch {
				pcs[op.Addr] = true
			}
		}
		return pcs
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("pc sets differ in size: %d vs %d", len(a), len(b))
	}
	for pc := range a {
		if !b[pc] {
			t.Fatalf("pc %#x not stable", pc)
		}
	}
	if len(a) < 3 {
		t.Fatalf("too few distinct branch sites: %d", len(a))
	}
}
