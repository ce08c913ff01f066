package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
)

func TestSockBufFIFOAndBytes(t *testing.T) {
	s := NewSockBuf(100)
	s.Push(Chunk{Bytes: 40}, 0)
	s.Push(Chunk{Bytes: 40}, 0)
	if s.HasSpace(40) {
		t.Fatal("overfull buffer reports space")
	}
	if s.Bytes() != 80 || s.Len() != 2 {
		t.Fatalf("bytes/len = %d/%d", s.Bytes(), s.Len())
	}
	c, ok := s.Pop(1)
	if !ok || c.Bytes != 40 {
		t.Fatalf("pop = %+v %v", c, ok)
	}
	if !s.HasSpace(40) {
		t.Fatal("space not reclaimed")
	}
}

func TestSockBufClaimFree(t *testing.T) {
	s := NewSockBuf(50)
	s.Push(Chunk{Bytes: 50}, 0)
	c, ok := s.Claim()
	if !ok {
		t.Fatal("claim failed")
	}
	if s.HasSpace(1) {
		t.Fatal("claim released space prematurely")
	}
	signalled := false
	s.NotFull.OnSignal(func(float64) { signalled = true })
	s.Free(c.Bytes, 10)
	if !s.HasSpace(50) || !signalled {
		t.Fatal("free did not reclaim space / signal writers")
	}
}

func TestSockBufUnlimited(t *testing.T) {
	s := NewSockBuf(0)
	for i := 0; i < 100; i++ {
		if !s.HasSpace(1 << 20) {
			t.Fatal("unlimited buffer full")
		}
		s.Push(Chunk{Bytes: 1 << 20}, 0)
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSockBufEmptyPop(t *testing.T) {
	s := NewSockBuf(10)
	if _, ok := s.Pop(0); ok {
		t.Fatal("pop from empty succeeded")
	}
	if _, ok := s.Claim(); ok {
		t.Fatal("claim from empty succeeded")
	}
}

func TestLinkSerialization(t *testing.T) {
	m := machine.New(machine.OneCPm, machine.Options{})
	l := NewLink(m, 1e9)
	// 1250 bytes at 1 Gbps = 10 microseconds = 10us * clock cycles.
	end1 := l.Reserve(0, 1250)
	wantCycles := m.Cycles(10e-6)
	if end1 < wantCycles*0.99 || end1 > wantCycles*1.01 {
		t.Fatalf("first reservation ends at %.0f, want %.0f", end1, wantCycles)
	}
	// Back-to-back: second starts after the first.
	end2 := l.Reserve(0, 1250)
	if end2 < 2*wantCycles*0.99 {
		t.Fatalf("no serialization: %.0f", end2)
	}
	if l.Backlog(0) != end2 {
		t.Fatalf("backlog = %.0f", l.Backlog(0))
	}
	if l.Backlog(end2+1) != 0 {
		t.Fatal("backlog after drain")
	}
}

func TestLinkThroughputCap(t *testing.T) {
	// Property: k back-to-back frames never finish faster than wire rate.
	m := machine.New(machine.OneLPx, machine.Options{})
	l := NewLink(m, 1e9)
	check := func(frames uint8) bool {
		l2 := NewLink(m, 1e9)
		n := int(frames%32) + 1
		var end float64
		for i := 0; i < n; i++ {
			end = l2.Reserve(0, 1500)
		}
		minSeconds := float64(n*1500*8) / 1e9
		return m.Seconds(end) >= minSeconds*0.999
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	_ = l
}

func TestSegments(t *testing.T) {
	if got := Segments(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Segments(0) = %v", got)
	}
	segs := Segments(5300)
	total := 0
	for i, s := range segs {
		total += s
		if s > MSS {
			t.Fatalf("segment %d oversize: %d", i, s)
		}
	}
	if total != 5300 || len(segs) != 4 {
		t.Fatalf("segments = %v", segs)
	}
}

func TestEmitCopyMix(t *testing.T) {
	var c trace.Counting
	EmitCopy(&c, 0x2000, 0x1000, 1024)
	words := uint64(1024 / 8)
	if c.Loads != words || c.Stores != words {
		t.Fatalf("loads/stores = %d/%d, want %d", c.Loads, c.Stores, words)
	}
	// One abstract branch per two words (+ tail): the Table 3 mix.
	if c.Branches < words/2 || c.Branches > words/2+4 {
		t.Fatalf("branches = %d", c.Branches)
	}
}

func TestEmitChecksumTouchesAllWords(t *testing.T) {
	var c trace.Counting
	emitChecksum(&c, 0x1000, 512, []byte{1, 2, 3})
	if c.Loads != 64 {
		t.Fatalf("loads = %d", c.Loads)
	}
}

func TestEmitSyscallScalesWithCost(t *testing.T) {
	var small, large trace.Counting
	EmitSyscall(&small, 0x1000, 1000)
	EmitSyscall(&large, 0x1000, 10000)
	if large.Instr < 8*small.Instr {
		t.Fatalf("syscall cost does not scale: %d vs %d", small.Instr, large.Instr)
	}
	if small.Loads == 0 || small.Branches == 0 {
		t.Fatalf("syscall mix missing loads/branches: %+v", small)
	}
}

func TestNICDeliverAndSoftirq(t *testing.T) {
	m := machine.New(machine.OneCPm, machine.Options{})
	e := sched.NewEngine(m)
	rx := NewLink(m, 1e9)
	tx := NewLink(m, 1e9)
	nic := NewNIC(e, e.Space.NewProcess(), rx, tx)
	irq := e.Spawn("softirq", 0, sched.KernelProcessID, 0, nic.SoftirqProc())
	irq.Priority = 10

	payload := make([]byte, 4000)
	var delivered Chunk
	var deliveredAt float64
	last := nic.InjectMessage(0, Chunk{Bytes: len(payload), Data: payload}, func(now float64, msg Chunk) {
		delivered = msg
		deliveredAt = now
	})
	e.Run(func(*sched.Engine) bool { return deliveredAt > 0 })
	if delivered.Bytes != 4000 {
		t.Fatalf("delivered %d bytes", delivered.Bytes)
	}
	if delivered.Addr == 0 {
		t.Fatal("no kernel placement for the message")
	}
	if deliveredAt < last {
		t.Fatalf("delivered at %.0f before last bit arrived at %.0f", deliveredAt, last)
	}
	if rx.Payload() != 4000 {
		t.Fatalf("link payload accounting = %d", rx.Payload())
	}
}

func TestNICTransmit(t *testing.T) {
	m := machine.New(machine.OneCPm, machine.Options{})
	e := sched.NewEngine(m)
	tx := NewLink(m, 1e9)
	nic := NewNIC(e, e.Space.NewProcess(), NewLink(m, 1e9), tx)
	buf := trace.NewBuffer(4096)
	done := false
	e.Spawn("sender", 0, 1, 0, sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		end := nic.Transmit(ctx, buf, nil, 1<<30, 5000)
		if end <= 0 {
			t.Error("transmit returned no wire time")
		}
		done = true
		return sched.StatusDone()
	}))
	e.Run(nil)
	if !done || tx.Payload() != 5000 {
		t.Fatalf("transmit incomplete: done=%v payload=%d", done, tx.Payload())
	}
}
