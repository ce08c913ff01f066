package bus

import "testing"

func testBus() *Bus {
	return New(Config{DataTxnCycles: 20, AddrTxnCycles: 5})
}

func TestOccupancyByKind(t *testing.T) {
	b := testBus()
	if lat := b.Transact(0, MemRead); lat != 20 {
		t.Fatalf("cold MemRead latency = %d", lat)
	}
	if lat := b.Transact(0, Invalidate); lat != 5 {
		t.Fatalf("cold Invalidate latency = %d", lat)
	}
}

func TestUtilizationDrivesQueueing(t *testing.T) {
	b := testBus()
	// Saturate one utilization window: back-to-back transactions.
	now := uint64(0)
	for now < utilWindow+1000 {
		b.Transact(now, MemRead)
		now += 20 // 100% utilization
	}
	if b.Rho() < 0.9 {
		t.Fatalf("rho = %.2f after saturation", b.Rho())
	}
	// Subsequent transactions must observe a nonzero queueing wait.
	lat := b.Transact(now, MemRead)
	if lat <= 20 {
		t.Fatalf("saturated latency = %d, want queueing above occupancy", lat)
	}
}

func TestIdleBusHasNoQueueing(t *testing.T) {
	b := testBus()
	// Sparse traffic: one transaction per 10k cycles.
	now := uint64(0)
	for now < 3*utilWindow {
		b.Transact(now, MemRead)
		now += 10_000
	}
	if b.Rho() > 0.01 {
		t.Fatalf("rho = %.3f for idle bus", b.Rho())
	}
	if lat := b.Transact(now, MemRead); lat != 20 {
		t.Fatalf("idle-bus latency = %d", lat)
	}
}

func TestSkewImmunity(t *testing.T) {
	// Two requesters with wildly different clocks: the laggard must not
	// be charged the skew as queueing (the absolute-horizon pathology).
	b := testBus()
	b.Transact(1_000_000, MemRead) // fast CPU far in the future
	lat := b.Transact(100, MemRead)
	if lat > 20+uint64(float64(20)*maxRho/(2*(1-maxRho)))+1 {
		t.Fatalf("laggard charged %d cycles", lat)
	}
}

func TestRhoCap(t *testing.T) {
	b := testBus()
	// Overcommit: more occupancy than wall time.
	for i := 0; i < 3*int(utilWindow)/20; i++ {
		b.Transact(uint64(i), MemRead)
	}
	b.Transact(utilWindow+1, MemRead)
	if b.Rho() > maxRho {
		t.Fatalf("rho %.3f above cap", b.Rho())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[TxnKind]string{
		MemRead: "mem-read", MemWrite: "mem-write",
		CacheToCache: "cache-to-cache", Invalidate: "invalidate",
		TxnKind(9): "invalid",
	} {
		if k.String() != want {
			t.Errorf("%d = %q want %q", k, k.String(), want)
		}
	}
}
