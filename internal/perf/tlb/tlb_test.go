package tlb

import (
	"testing"
	"testing/quick"
)

func testTLB(entries int) *TLB {
	return New(Config{Entries: entries, PageBits: 12, WalkCost: 30})
}

func TestHitAfterMiss(t *testing.T) {
	tl := testTLB(4)
	pen, miss := tl.Access(0x5000)
	if !miss || pen != 30 {
		t.Fatalf("cold access: pen=%d miss=%v", pen, miss)
	}
	pen, miss = tl.Access(0x5abc) // same page
	if miss || pen != 0 {
		t.Fatalf("same-page access missed: pen=%d miss=%v", pen, miss)
	}
	s := tl.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := testTLB(2)
	tl.Access(0x1000) // page 1
	tl.Access(0x2000) // page 2
	tl.Access(0x1000) // touch page 1; page 2 is LRU
	tl.Access(0x3000) // evicts page 2
	if _, miss := tl.Access(0x1000); miss {
		t.Fatal("MRU page evicted")
	}
	if _, miss := tl.Access(0x2000); !miss {
		t.Fatal("LRU page survived")
	}
}

func TestFlush(t *testing.T) {
	tl := testTLB(8)
	tl.Access(0x1000)
	tl.Flush()
	if _, miss := tl.Access(0x1000); !miss {
		t.Fatal("translation survived flush")
	}
}

func TestZeroPageHandled(t *testing.T) {
	tl := testTLB(4)
	if _, miss := tl.Access(0x10); !miss {
		t.Fatal("first access to page 0 did not miss")
	}
	if _, miss := tl.Access(0x20); miss {
		t.Fatal("page 0 not cached")
	}
}

// Property: hit rate for a working set within capacity is perfect after
// the first touch.
func TestCapacityProperty(t *testing.T) {
	check := func(seed uint8) bool {
		tl := testTLB(16)
		// Touch 16 distinct pages twice; second round must all hit.
		for round := 0; round < 2; round++ {
			for p := 0; p < 16; p++ {
				tl.Access(uint64(seed)<<20 + uint64(p)<<12)
			}
		}
		return tl.Stats().Misses == 16
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	tl := testTLB(4)
	tl.Access(0x1000)
	tl.ResetStats()
	if tl.Stats().Accesses != 0 {
		t.Fatal("stats survive reset")
	}
	if _, miss := tl.Access(0x1000); miss {
		t.Fatal("ResetStats dropped translations")
	}
}

// oracleAccess is Access before the last-slot memo: the plain linear
// scan over every slot, kept as the reference TestMemoMatchesScan holds
// Access to. It leaves t.last alone.
func oracleAccess(t *TLB, addr uint64) (penalty int, miss bool) {
	t.stats.Accesses++
	page := addr >> t.cfg.PageBits
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i, p := range t.pages {
		if t.valid[i] && p == page {
			t.clock++
			t.lru[i] = t.clock
			return 0, false
		}
		if t.lru[i] < victimLRU {
			victimLRU = t.lru[i]
			victim = i
		}
	}
	t.stats.Misses++
	t.clock++
	t.pages[victim] = page
	t.valid[victim] = true
	t.lru[victim] = t.clock
	return t.cfg.WalkCost, true
}

// Property: over a random address stream with interleaved Flushes, the
// memoized Access and the scan oracle agree on every hit and miss, the
// stats, and every slot's page, validity and LRU stamp.
func TestMemoMatchesScan(t *testing.T) {
	check := func(entries uint8, ops []uint16) bool {
		memo, scan := testTLB(int(entries%8)+1), testTLB(int(entries%8)+1)
		for _, op := range ops {
			if op%17 == 0 {
				memo.Flush()
				scan.Flush()
				continue
			}
			// A dozen pages over at most eight slots: hits, misses and
			// evictions all happen.
			addr := uint64(op%12)<<12 | uint64(op>>4)
			mp, mm := memo.Access(addr)
			sp, sm := oracleAccess(scan, addr)
			if mp != sp || mm != sm {
				return false
			}
		}
		if memo.Stats() != scan.Stats() || memo.clock != scan.clock {
			return false
		}
		for i := range memo.pages {
			if memo.pages[i] != scan.pages[i] || memo.valid[i] != scan.valid[i] || memo.lru[i] != scan.lru[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
