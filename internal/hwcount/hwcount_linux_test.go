//go:build linux && (amd64 || arm64)

package hwcount

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

// pin locks the calling goroutine to its thread and restricts the thread
// to CPU id. The returned function restores the thread's previous
// affinity and unlocks it; if the restore fails the thread stays locked
// and exits with the goroutine. A failed pin ends the test the same way.
func pin(t *testing.T, id int) (restore func()) {
	t.Helper()
	runtime.LockOSThread()
	old := make([]uint64, 128)
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		0, uintptr(8*len(old)), uintptr(unsafe.Pointer(&old[0])))
	if errno != 0 {
		t.Fatalf("sched_getaffinity: %v", errno)
	}
	mask := make([]uint64, id/64+1)
	mask[id/64] = 1 << (id % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		0, uintptr(8*len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		t.Fatalf("sched_setaffinity(cpu %d): %v", id, errno)
	}
	return func() {
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
			0, n, uintptr(unsafe.Pointer(&old[0]))); errno == 0 {
			runtime.UnlockOSThread()
		}
	}
}

// TestCPUsFollowsAffinity checks CPUs lists the affinity set's ids, not
// 0..NumCPU-1: the whole set at startup is NumCPU ascending ids, and a
// thread pinned to the set's last CPU sees that id alone.
func TestCPUsFollowsAffinity(t *testing.T) {
	ids := CPUs()
	if len(ids) != runtime.NumCPU() {
		t.Fatalf("CPUs() = %v, want %d ids", ids, runtime.NumCPU())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("CPUs() = %v, want ascending distinct ids", ids)
		}
	}
	last := ids[len(ids)-1]
	defer pin(t, last)()
	if got := CPUs(); len(got) != 1 || got[0] != last {
		t.Fatalf("pinned to CPU %d, CPUs() = %v", last, got)
	}
}

// TestOpenCPULive opportunistically opens the event set restricted to
// the first CPU of the affinity set — the per-CPU counter group path —
// from a thread pinned there, burns cycles, and requires the group to
// have counted them. On perf-denied hosts it verifies the error fallback
// instead.
func TestOpenCPULive(t *testing.T) {
	id := CPUs()[0]
	defer pin(t, id)()
	g, err := OpenCPU(id)
	if err != nil {
		t.Skipf("per-CPU perf events unavailable here (fallback path is live): %v", err)
	}
	defer g.Close()
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	r, err := g.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	t.Logf("cpu %d group: grouped=%v userOnly=%v cycles=%d", id, g.Grouped(), g.UserOnly(), r.Counts.Get(Cycles))
	if r.Counts.Get(Cycles) == 0 || r.Counts.Get(Instructions) == 0 {
		t.Fatalf("cpu %d group empty after a busy loop pinned there: %+v", id, r.Counts)
	}
	if d := Derive(r.Counts); d.CPI <= 0 {
		t.Fatalf("cpu %d CPI %v, want > 0", id, d.CPI)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}
	if _, err := g.Read(); err == nil {
		t.Fatal("read after close should fail")
	}
}
