package trace

// Arena hands out synthetic data addresses for simulated buffers. Every
// simulated software thread (or process) owns one or more arenas carved out
// of a flat 64-bit synthetic address space; the addresses feed the cache,
// TLB and bus models but never alias real Go memory.
//
// Two allocation modes mirror how the real applications use memory:
//
//   - Alloc      — bump allocation of fresh addresses (malloc of a new
//     message buffer: cold lines, no temporal reuse).
//   - AllocReuse — a recycled region of fixed size (a per-worker scratch
//     heap for DOM nodes or parser state: warm lines, temporal reuse).
type Arena struct {
	base  uint64
	limit uint64
	next  uint64
}

// alignBytes is the allocation alignment; it matches a cache line so that
// distinct buffers never produce false line sharing.
const alignBytes = 64

// NewArena carves an arena of size bytes starting at base.
func NewArena(base, size uint64) *Arena {
	return &Arena{base: base, limit: base + size, next: base}
}

// Base returns the arena's first address.
func (a *Arena) Base() uint64 { return a.base }

// Size returns the arena's capacity in bytes.
func (a *Arena) Size() uint64 { return a.limit - a.base }

// Used returns the number of bytes allocated since creation or last Reset.
func (a *Arena) Used() uint64 { return a.next - a.base }

// Alloc returns the synthetic base address of a fresh region of the given
// size. When the arena is exhausted it wraps around, which models a real
// allocator recycling freed virtual pages after the working set has left
// the caches.
func (a *Arena) Alloc(size uint64) uint64 {
	size = (size + alignBytes - 1) &^ (alignBytes - 1)
	if a.next+size > a.limit {
		a.next = a.base
	}
	addr := a.next
	a.next += size
	return addr
}

// Reset rewinds the arena so subsequent Allocs reuse addresses from the
// start. Used to model per-request scratch heaps that are recycled.
func (a *Arena) Reset() { a.next = a.base }

// AddressSpace partitions the global synthetic address space among
// simulated processes so their working sets never collide. Each process
// receives a contiguous 1 GiB slot.
type AddressSpace struct {
	nextSlot uint64
}

// slotBytes is the size of one process address-space slot.
const slotBytes = 1 << 30

// NewAddressSpace returns an empty synthetic address space. The first slot
// starts above the zero page so a zero address is never valid.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{nextSlot: 1}
}

// NewProcess reserves the next process slot and returns an arena covering
// it.
func (s *AddressSpace) NewProcess() *Arena {
	base := s.nextSlot * slotBytes
	s.nextSlot++
	return NewArena(base, slotBytes)
}

// SubArena carves a child arena of the given size out of a parent arena.
func SubArena(parent *Arena, size uint64) *Arena {
	base := parent.Alloc(size)
	return NewArena(base, size)
}

// CodeRegion hands out stable synthetic program counters for branch sites.
// Each instrumented kernel reserves a region at init time and derives the
// PCs of its branch sites from stable offsets, so the branch predictor sees
// the same site identity across messages, threads and runs — exactly like
// the text segment of a compiled binary.
type CodeRegion struct {
	base uint64
	next uint64
}

// codeSegmentBase places synthetic code far above any data slot.
const codeSegmentBase = uint64(0x7f00_0000_0000)

// codeAlloc is the global bump pointer for code regions. Regions are
// reserved at package-init time only, so no locking is needed.
var codeAlloc = codeSegmentBase

// NewCodeRegion reserves a code region of the given byte size. It is meant
// to be called from package init or var initialization.
func NewCodeRegion(size uint64) *CodeRegion {
	r := &CodeRegion{base: codeAlloc, next: codeAlloc}
	codeAlloc += (size + 4095) &^ 4095
	return r
}

// Site reserves one branch-site PC within the region. Like NewCodeRegion it
// is intended for init-time use.
func (r *CodeRegion) Site() uint64 {
	pc := r.next
	r.next += 4
	return pc
}

// SiteAt returns the PC at a fixed offset within the region, for kernels
// that index their branch sites dynamically (for example one PC per parser
// state). The offset is clamped into the region by masking, so a dynamic
// index can never walk outside the reserved code bytes.
func (r *CodeRegion) SiteAt(offset uint64) uint64 {
	return r.base + (offset*4)&0xfff
}

// Base returns the region's first PC.
func (r *CodeRegion) Base() uint64 { return r.base }
