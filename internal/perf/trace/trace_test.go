package trace

import (
	"testing"
	"testing/quick"
)

func TestBufferAccumulation(t *testing.T) {
	b := NewBuffer(16)
	b.ALU(5)
	b.ALU(3) // coalesces with the previous burst
	b.Load(0x100, 4)
	b.Store(0x200, 2)
	b.Branch(0x40, true)
	b.Branch(0x44, false)

	if len(b.Ops) != 5 {
		t.Fatalf("ops = %d, want 5 (ALU bursts coalesce)", len(b.Ops))
	}
	if b.Ops[0].Kind != ALU || b.Ops[0].N != 8 {
		t.Fatalf("coalesced ALU = %+v", b.Ops[0])
	}
	if b.Instr != 8+4+2+2 {
		t.Fatalf("Instr = %d, want 16", b.Instr)
	}
	if b.Loads != 4 || b.Stores != 2 || b.Branches != 2 {
		t.Fatalf("loads/stores/branches = %d/%d/%d", b.Loads, b.Stores, b.Branches)
	}
	b.Reset()
	if len(b.Ops) != 0 || b.Instr != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

func TestBufferIgnoresZeroBursts(t *testing.T) {
	b := NewBuffer(4)
	b.ALU(0)
	b.Load(0x0, 0)
	b.Store(0x0, -1)
	if len(b.Ops) != 0 || b.Instr != 0 {
		t.Fatalf("zero bursts recorded: %+v", b.Ops)
	}
}

func TestCountingMatchesBuffer(t *testing.T) {
	check := func(alu uint8, loads, stores uint8, branches uint8) bool {
		b := NewBuffer(64)
		var c Counting
		for _, em := range []Emitter{b, &c} {
			em.ALU(int(alu))
			em.Load(0x1000, int(loads))
			em.Store(0x2000, int(stores))
			for i := 0; i < int(branches); i++ {
				em.Branch(uint64(0x40+i*4), i%2 == 0)
			}
		}
		return b.Instr == c.Instr && b.Loads == c.Loads &&
			b.Stores == c.Stores && b.Branches == c.Branches
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNopIsSilent(t *testing.T) {
	var n Nop
	n.ALU(10)
	n.Load(1, 1)
	n.Store(1, 1)
	n.Branch(1, true)
	// Nothing observable; this test exists to keep the interface honest.
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{ALU: "alu", Load: "load", Store: "store", Branch: "branch", Kind(9): "invalid"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestArenaAllocation(t *testing.T) {
	a := NewArena(0x10000, 1024)
	p1 := a.Alloc(100)
	p2 := a.Alloc(100)
	if p1 != 0x10000 {
		t.Fatalf("first alloc at %#x", p1)
	}
	if p2 != p1+128 { // rounded to 64-byte alignment
		t.Fatalf("second alloc at %#x, want %#x", p2, p1+128)
	}
	if a.Used() != 256 {
		t.Fatalf("Used = %d", a.Used())
	}
}

func TestArenaWrapAround(t *testing.T) {
	a := NewArena(0, 256)
	a.Alloc(128)
	a.Alloc(64)
	p := a.Alloc(128) // does not fit; wraps
	if p != 0 {
		t.Fatalf("wrap alloc at %#x, want 0", p)
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena(0x500, 512)
	a.Alloc(64)
	a.Reset()
	if p := a.Alloc(64); p != 0x500 {
		t.Fatalf("post-reset alloc at %#x", p)
	}
}

func TestAddressSpaceDisjointProcesses(t *testing.T) {
	s := NewAddressSpace()
	a := s.NewProcess()
	b := s.NewProcess()
	if a.Base() == b.Base() {
		t.Fatal("processes share a base")
	}
	if a.Base()+a.Size() > b.Base() && b.Base() >= a.Base() {
		// b must start beyond a's slot
		if b.Base() < a.Base()+slotBytes {
			t.Fatalf("slots overlap: %#x vs %#x", a.Base(), b.Base())
		}
	}
}

func TestSubArenaInsideParent(t *testing.T) {
	s := NewAddressSpace()
	p := s.NewProcess()
	sub := SubArena(p, 4096)
	if sub.Base() < p.Base() || sub.Base()+sub.Size() > p.Base()+p.Size() {
		t.Fatalf("sub-arena [%#x,%#x) outside parent [%#x,%#x)",
			sub.Base(), sub.Base()+sub.Size(), p.Base(), p.Base()+p.Size())
	}
}

func TestArenaAlignmentProperty(t *testing.T) {
	a := NewArena(1<<20, 1<<16)
	check := func(sz uint16) bool {
		p := a.Alloc(uint64(sz%2048) + 1)
		return p%alignBytes == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeRegionStablePCs(t *testing.T) {
	r := NewCodeRegion(64)
	pc1 := r.Site()
	pc2 := r.Site()
	if pc1 == pc2 {
		t.Fatal("sites collide")
	}
	if pc2 != pc1+4 {
		t.Fatalf("sites not adjacent: %#x %#x", pc1, pc2)
	}
	if r.SiteAt(3) != r.SiteAt(3) {
		t.Fatal("SiteAt not stable")
	}
	// SiteAt must stay inside the region's 4 KiB mask.
	if r.SiteAt(1<<20) < r.Base() {
		t.Fatal("SiteAt escaped below region")
	}
}

func TestCodeRegionsDisjoint(t *testing.T) {
	r1 := NewCodeRegion(4096)
	r2 := NewCodeRegion(4096)
	if r2.Base() < r1.Base()+4096 {
		t.Fatalf("regions overlap: %#x %#x", r1.Base(), r2.Base())
	}
}
