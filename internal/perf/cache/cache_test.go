package cache

import (
	"testing"
	"testing/quick"
)

func testCache(size, line, assoc int) *Cache {
	return New(Config{Name: "t", Size: size, LineSize: line, Assoc: assoc, Latency: 3})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 1024, LineSize: 0, Assoc: 2},
		{Size: 1024, LineSize: 48, Assoc: 2},       // not power of two
		{Size: 1000, LineSize: 64, Assoc: 2},       // not multiple
		{Size: 1024, LineSize: 64, Assoc: 0},       // bad assoc
		{Size: 64 * 2 * 3, LineSize: 64, Assoc: 2}, // sets not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	good := Config{Size: 32 << 10, LineSize: 64, Assoc: 8, Latency: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := testCache(1024, 64, 2)
	if st, _ := c.Lookup(0x100, false); st != Invalid {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0x100, Exclusive)
	if st, _ := c.Lookup(0x100, false); st != Exclusive {
		t.Fatalf("post-fill state = %v", st)
	}
	// Same line, different word.
	if st, _ := c.Lookup(0x108, false); st == Invalid {
		t.Fatal("same-line word missed")
	}
}

func TestWriteUpgrades(t *testing.T) {
	c := testCache(1024, 64, 2)
	c.Fill(0x40, Shared)
	st, upgrade := c.Lookup(0x40, true)
	if st != Shared || !upgrade {
		t.Fatalf("S write: st=%v upgrade=%v", st, upgrade)
	}
	if c.Probe(0x40) != Modified {
		t.Fatal("line not Modified after upgrade")
	}

	c.Fill(0x80, Exclusive)
	st, upgrade = c.Lookup(0x80, true)
	if st != Exclusive || upgrade {
		t.Fatalf("E write must be silent: st=%v upgrade=%v", st, upgrade)
	}
	if c.Probe(0x80) != Modified {
		t.Fatal("E line not Modified after write")
	}
}

func TestLRUEviction(t *testing.T) {
	c := testCache(2*64, 64, 2) // one set, two ways
	c.Fill(0x0, Exclusive)
	c.Fill(0x40000, Exclusive)
	c.Lookup(0x0, false) // touch 0x0: now 0x40000 is LRU
	v := c.Fill(0x80000, Exclusive)
	if !v.Valid || v.Addr != 0x40000 {
		t.Fatalf("victim = %+v, want 0x40000", v)
	}
	if c.Probe(0x0) == Invalid {
		t.Fatal("recently used line evicted")
	}
}

func TestDirtyVictimWriteBack(t *testing.T) {
	c := testCache(2*64, 64, 2)
	c.Fill(0x0, Modified)
	c.Fill(0x40000, Exclusive)
	c.Lookup(0x40000, false)
	c.Lookup(0x40000, false) // 0x0 is LRU and dirty
	v := c.Fill(0x80000, Exclusive)
	if !v.WriteBack || !v.Valid || v.Addr != 0x0 {
		t.Fatalf("dirty victim = %+v", v)
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := testCache(2*64, 64, 2)
	c.Fill(0x0, Exclusive)
	c.Fill(0x40000, Exclusive) // 0x0 is LRU
	c.Probe(0x0)               // snoop must not refresh
	v := c.Fill(0x80000, Exclusive)
	if v.Addr != 0x0 {
		t.Fatalf("probe refreshed LRU: victim %+v", v)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := testCache(1024, 64, 2)
	c.Fill(0x40, Modified)
	if dirty := c.Downgrade(0x40); !dirty {
		t.Fatal("downgrade of M not reported dirty")
	}
	if c.Probe(0x40) != Shared {
		t.Fatal("downgrade did not leave Shared")
	}
	if st := c.Invalidate(0x40); st != Shared {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.Probe(0x40) != Invalid {
		t.Fatal("line survives invalidate")
	}
	if st := c.Invalidate(0x40); st != Invalid {
		t.Fatal("double invalidate returned a state")
	}
	// Downgrade of clean-exclusive is not a dirty supply.
	c.Fill(0x80, Exclusive)
	if dirty := c.Downgrade(0x80); dirty {
		t.Fatal("E downgrade reported dirty")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := testCache(4096, 64, 4)
	for i := 0; i < 10; i++ {
		c.Fill(uint64(i*64), Shared)
	}
	if c.Occupancy() != 10 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Fatal("flush left lines")
	}
}

func TestFillExistingRaisesState(t *testing.T) {
	c := testCache(1024, 64, 2)
	c.Fill(0x40, Shared)
	c.Fill(0x40, Modified)
	if c.Probe(0x40) != Modified {
		t.Fatal("re-fill did not raise state")
	}
	c.Fill(0x40, Shared) // must not lower
	if c.Probe(0x40) != Modified {
		t.Fatal("re-fill lowered state")
	}
}

// A fill must find its line in any way before it takes a free one:
// taking the invalidated way would leave B in two ways, and invalidating
// one copy would leave the other to hit stale.
func TestFillNeverDuplicatesLine(t *testing.T) {
	c := testCache(2*64, 64, 2) // one set, two ways
	c.Fill(0x0, Exclusive)
	c.Fill(0x40, Exclusive)
	c.Invalidate(0x0) // way 0 is free, B sits in way 1
	c.Fill(0x40, Shared)
	if n := c.Occupancy(); n != 1 {
		t.Fatalf("occupancy = %d, want 1", n)
	}
	c.Invalidate(0x40)
	if st, _ := c.Lookup(0x40, false); st != Invalid {
		t.Fatalf("invalidated line hit %v", st)
	}
}

// Property: the cache never holds more lines than its capacity, and a
// line just filled is always present.
func TestCapacityInvariant(t *testing.T) {
	c := testCache(4096, 64, 4)
	capacity := 4096 / 64
	check := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a) * 64
			c.Fill(addr, Exclusive)
			if c.Probe(addr) == Invalid {
				return false
			}
			if c.Occupancy() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookups after a fill hit for any address within the line.
func TestLineGranularityProperty(t *testing.T) {
	c := testCache(32<<10, 64, 8)
	check := func(base uint32, off uint8) bool {
		addr := uint64(base) << 6
		c.Fill(addr, Exclusive)
		st, _ := c.Lookup(addr+uint64(off%64), false)
		return st != Invalid
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"} {
		if st.String() != want {
			t.Errorf("%d = %q want %q", st, st.String(), want)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	New(Config{Size: 100, LineSize: 64, Assoc: 2})
}
