//go:build linux && (amd64 || arm64)

package hwcount

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"syscall"
	"unsafe"
)

// perf_event_attr constants (include/uapi/linux/perf_event.h). Only the
// fields and flags the fixed event set needs are named.
const (
	perfTypeHardware = 0

	// attrBits flag positions.
	attrDisabled      = 1 << 0
	attrInherit       = 1 << 1
	attrExcludeKernel = 1 << 5
	attrExcludeHV     = 1 << 6

	// read_format flags.
	fmtTotalTimeEnabled = 1 << 0
	fmtTotalTimeRunning = 1 << 1
	fmtGroup            = 1 << 3

	// perf_event_open flags.
	flagFDCloexec = 1 << 3

	// ioctls.
	iocEnable    = 0x2400
	iocReset     = 0x2403
	iocFlagGroup = 1
)

// hwConfig maps the fixed event set to PERF_COUNT_HW_* config values.
var hwConfig = [NumEvents]uint64{
	Cycles:       0, // PERF_COUNT_HW_CPU_CYCLES
	Instructions: 1, // PERF_COUNT_HW_INSTRUCTIONS
	CacheRefs:    2, // PERF_COUNT_HW_CACHE_REFERENCES
	CacheMisses:  3, // PERF_COUNT_HW_CACHE_MISSES
	Branches:     4, // PERF_COUNT_HW_BRANCH_INSTRUCTIONS
	BranchMisses: 5, // PERF_COUNT_HW_BRANCH_MISSES
}

// perfEventAttr is struct perf_event_attr, PERF_ATTR_SIZE_VER8 (136
// bytes) — the kernel accepts any published size, older kernels reject
// the tail fields only if set, and everything past ReadFormat stays zero
// here except the flag bits.
type perfEventAttr struct {
	Type             uint32
	Size             uint32
	Config           uint64
	Sample           uint64
	SampleType       uint64
	ReadFormat       uint64
	Bits             uint64
	WakeupEvents     uint32
	BpType           uint32
	Ext1             uint64
	Ext2             uint64
	BranchSampleType uint64
	SampleRegsUser   uint64
	SampleStackUser  uint32
	ClockID          int32
	SampleRegsIntr   uint64
	AuxWatermark     uint32
	SampleMaxStack   uint16
	_                uint16
	AuxSampleSize    uint32
	_                uint32
	SigData          uint64
	Config3          uint64
}

// Group is one opened event set. Layouts:
//
//   - grouped: fds[0] is the group leader; one read on it returns every
//     sibling's value with shared time_enabled/time_running
//     (PERF_FORMAT_GROUP).
//   - independent: one fd per event, each read and scaled on its own —
//     the fallback when the kernel refuses grouped reads with inherit
//     (the common case; see Open).
type Group struct {
	fds      [NumEvents]int
	grouped  bool
	userOnly bool
	closed   bool
}

// Grouped reports whether the set was opened as a true perf event group.
func (g *Group) Grouped() bool { return g.grouped }

// UserOnly reports whether kernel-mode cycles are excluded — the
// unprivileged-profile concession when perf_event_paranoid demands it.
func (g *Group) UserOnly() bool { return g.userOnly }

// Supported reports that this platform can attempt perf_event_open at
// all. True here; whether the host actually grants events is decided by
// Open/OpenCPU at runtime.
func Supported() bool { return true }

// Open opens the fixed event set for this process (pid 0, any CPU, with
// inherit so threads spawned after the open are counted — Go's scheduler
// creates most Ms lazily, so an Open at startup attributes the serving
// path). Strategies are tried in order of fidelity:
//
//  1. one perf event group (single atomic read, shared scaling)
//  2. independent per-event fds (per-event scaling) — most kernels
//     reject PERF_FORMAT_GROUP combined with inherit, so this is the
//     usual working mode
//
// and each strategy retries with exclude_kernel when the paranoid level
// denies kernel-mode counting. The first error of the last strategy is
// returned when nothing works (no PMU, seccomp, paranoid >= 3).
func Open() (*Group, error) { return openSet(-1) }

// OpenCPU opens the fixed event set for this process restricted to
// logical CPU n, an id from CPUs (pid 0, cpu n, inherit): the per-CPU
// counter group behind the gateway's per-processor CPI skew. It has
// Open's inherit caveat — threads the runtime started before the call
// are not counted, so a CPU only they run on reads zero — and the same
// strategy order.
func OpenCPU(n int) (*Group, error) { return openSet(n) }

// CPUs lists the logical CPU ids in the calling thread's scheduler
// affinity set, ascending — the CPUs this process runs on, which is what
// runtime.NumCPU counts but need not be 0..NumCPU-1 (a cpuset may grant
// CPUs 4-7 only). Falls back to 0..runtime.NumCPU()-1 if the set cannot
// be read.
func CPUs() []int {
	for words := 16; words <= 1<<12; words *= 2 {
		mask := make([]uint64, words)
		// The raw syscall returns the bytes of mask the kernel filled, a
		// whole number of words; EINVAL means the mask is too small.
		n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
			0, uintptr(8*words), uintptr(unsafe.Pointer(&mask[0])))
		if errno == syscall.EINVAL {
			continue
		}
		if errno != 0 {
			break
		}
		var ids []int
		for w, bitsSet := range mask[:n/8] {
			for ; bitsSet != 0; bitsSet &= bitsSet - 1 {
				ids = append(ids, 64*w+bits.TrailingZeros64(bitsSet))
			}
		}
		if len(ids) > 0 {
			return ids
		}
		break
	}
	return sequentialCPUs()
}

func openSet(cpu int) (*Group, error) {
	var lastErr error
	for _, grouped := range []bool{true, false} {
		for _, userOnly := range []bool{false, true} {
			g, err := open(grouped, userOnly, cpu)
			if err == nil {
				return g, nil
			}
			lastErr = err
		}
	}
	return nil, lastErr
}

func open(grouped, userOnly bool, cpu int) (*Group, error) {
	g := &Group{grouped: grouped, userOnly: userOnly}
	for i := range g.fds {
		g.fds[i] = -1
	}
	for e := Event(0); e < NumEvents; e++ {
		attr := perfEventAttr{
			Type:   perfTypeHardware,
			Config: hwConfig[e],
			Bits:   attrExcludeHV | attrInherit,
		}
		attr.Size = uint32(unsafe.Sizeof(attr))
		if userOnly {
			attr.Bits |= attrExcludeKernel
		}
		groupFD := -1
		if grouped {
			if e == Cycles {
				// Leader: opened disabled and armed once the set is
				// complete, carrying the group read format.
				attr.Bits |= attrDisabled
				attr.ReadFormat = fmtGroup | fmtTotalTimeEnabled | fmtTotalTimeRunning
			} else {
				groupFD = g.fds[Cycles]
			}
		} else {
			attr.ReadFormat = fmtTotalTimeEnabled | fmtTotalTimeRunning
		}
		fd, err := perfEventOpen(&attr, 0, cpu, groupFD, flagFDCloexec)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("hwcount: open %s (grouped=%v user-only=%v): %w",
				e, grouped, userOnly, err)
		}
		g.fds[e] = fd
	}
	if grouped {
		if err := ioctl(g.fds[Cycles], iocReset, iocFlagGroup); err != nil {
			g.Close()
			return nil, fmt.Errorf("hwcount: reset group: %w", err)
		}
		if err := ioctl(g.fds[Cycles], iocEnable, iocFlagGroup); err != nil {
			g.Close()
			return nil, fmt.Errorf("hwcount: enable group: %w", err)
		}
	}
	return g, nil
}

// Read takes one scaled measurement of the whole set.
func (g *Group) Read() (Reading, error) {
	if g.closed {
		return Reading{}, fmt.Errorf("hwcount: read on closed group")
	}
	if g.grouped {
		return g.readGrouped()
	}
	return g.readIndependent()
}

// readGrouped parses the PERF_FORMAT_GROUP layout off the leader:
// nr, time_enabled, time_running, then one value per event in open
// order. The whole set shares one scaling window.
func (g *Group) readGrouped() (Reading, error) {
	buf := make([]byte, 8*(3+NumEvents))
	if err := readFull(g.fds[Cycles], buf); err != nil {
		return Reading{}, err
	}
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(buf[8*i:]) }
	nr := u64(0)
	if nr != uint64(NumEvents) {
		return Reading{}, fmt.Errorf("hwcount: group read returned %d events, want %d", nr, NumEvents)
	}
	r := Reading{TimeEnabledNS: u64(1), TimeRunningNS: u64(2)}
	r.Multiplexed = r.TimeRunningNS < r.TimeEnabledNS
	for e := Event(0); e < NumEvents; e++ {
		r.Counts[e] = scaleValue(u64(3+int(e)), r.TimeEnabledNS, r.TimeRunningNS)
	}
	return r, nil
}

// readIndependent reads each event fd on its own:
// value, time_enabled, time_running — each event scales by its own
// window, so unevenly multiplexed events stay individually honest.
func (g *Group) readIndependent() (Reading, error) {
	var r Reading
	var buf [24]byte
	for e := Event(0); e < NumEvents; e++ {
		if err := readFull(g.fds[e], buf[:]); err != nil {
			return Reading{}, fmt.Errorf("hwcount: read %s: %w", e, err)
		}
		raw := binary.LittleEndian.Uint64(buf[0:])
		enabled := binary.LittleEndian.Uint64(buf[8:])
		running := binary.LittleEndian.Uint64(buf[16:])
		r.Counts[e] = scaleValue(raw, enabled, running)
		if enabled > r.TimeEnabledNS {
			r.TimeEnabledNS = enabled
		}
		if running > r.TimeRunningNS {
			r.TimeRunningNS = running
		}
		if running < enabled {
			r.Multiplexed = true
		}
	}
	return r, nil
}

// Close releases every event fd. Idempotent.
func (g *Group) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	for i, fd := range g.fds {
		if fd >= 0 {
			syscall.Close(fd)
			g.fds[i] = -1
		}
	}
	return nil
}

func perfEventOpen(attr *perfEventAttr, pid, cpu, groupFD int, flags uintptr) (int, error) {
	fd, _, errno := syscall.Syscall6(sysPerfEventOpen,
		uintptr(unsafe.Pointer(attr)),
		uintptr(pid), uintptr(cpu), uintptr(groupFD), flags, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

func ioctl(fd int, req, arg uintptr) error {
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), req, arg)
	if errno != 0 {
		return errno
	}
	return nil
}

// readFull reads exactly len(buf) bytes from a counter fd; perf reads
// are atomic and never short on success, so a short read is an error.
func readFull(fd int, buf []byte) error {
	n, err := syscall.Read(fd, buf)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("hwcount: short counter read (%d of %d bytes)", n, len(buf))
	}
	return nil
}
