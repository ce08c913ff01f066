package netsim

import (
	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
)

// NIC is the system-under-test's network interface: arriving segments are
// DMA'd into rotating kernel buffers (invalidating any cached copies and
// occupying the front-side bus, exactly the path that makes network-I/O
// workloads memory-bound), then handed to the softirq thread.
type NIC struct {
	E  *sched.Engine
	M  *machine.Machine
	Rx *Link
	Tx *Link

	// KernSpace is the kernel address-space arena the NIC (and the rest
	// of the kernel model) carves its regions from.
	KernSpace *trace.Arena

	// DMAArena provides the rotating kernel segment buffers. Its size is
	// chosen to model a ring of sk_buffs much larger than L1 but
	// recycled through L2.
	DMAArena *trace.Arena
	// SockArena provides socket-buffer data placement.
	SockArena *trace.Arena

	// Pending holds DMA-complete segments awaiting softirq processing.
	Pending *SockBuf
	// IRQ wakes the softirq thread.
	IRQ sched.Waiter
}

// NewNIC wires a NIC to an engine, carving its kernel arenas out of the
// kernel address space (process 0 by convention).
func NewNIC(e *sched.Engine, kernSpace *trace.Arena, rx, tx *Link) *NIC {
	return &NIC{
		E:         e,
		M:         e.M,
		Rx:        rx,
		Tx:        tx,
		KernSpace: kernSpace,
		DMAArena:  trace.SubArena(kernSpace, 512<<10),
		SockArena: trace.SubArena(kernSpace, 1<<20),
		Pending:   NewSockBuf(0),
	}
}

// inflight tracks reassembly of one application message.
type inflight struct {
	msg       Chunk
	remaining int
	deliver   func(now float64, msg Chunk)
}

// DeliverSegment is called by the link-arrival event for one segment: the
// NIC DMA-writes the payload into a kernel buffer and raises the softirq.
func (n *NIC) DeliverSegment(now float64, seg Chunk) {
	addr := n.DMAArena.Alloc(uint64(seg.Bytes) + 256) // headroom for headers
	n.M.DMAWrite(now, addr, seg.Bytes+64)
	seg.Addr = addr
	n.Pending.Push(seg, now)
	n.IRQ.Signal(now)
}

// SoftirqProc returns the Proc of the network softirq thread. On the
// paper-era Linux 2.6 kernels all receive processing runs on the CPU that
// takes the NIC interrupt — CPU0 — which serializes a slice of every
// message's work regardless of how many CPUs the box has. The thread
// performs per-segment header processing and checksum verification, copies
// the payload into the destination socket buffer, and on final-segment
// arrival completes message reassembly.
func (n *NIC) SoftirqProc() sched.Proc {
	buf := trace.NewBuffer(4096)
	return sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		seg, ok := n.Pending.Pop(ctx.Now())
		if !ok {
			return sched.StatusWait(&n.IRQ)
		}
		fl := seg.Meta.(*inflight)

		buf.Reset()
		EmitRxHeader(buf, seg.Addr, fl.remaining)
		emitChecksum(buf, seg.Addr, seg.Bytes, fl.msg.Data)
		sockAddr := n.SockArena.Alloc(uint64(seg.Bytes))
		EmitCopy(buf, sockAddr, seg.Addr, seg.Bytes)
		ctx.ExecBuffer(buf)

		if fl.msg.Addr == 0 {
			fl.msg.Addr = sockAddr // message starts at its first segment
		}
		fl.remaining--
		if fl.remaining == 0 {
			fl.deliver(ctx.Now(), fl.msg)
		}
		return sched.StatusYield()
	})
}

// InjectMessage schedules the arrival of one application message over the
// receive link starting no earlier than cycle now: each MSS segment
// serializes on the wire, then DMAs and queues for the softirq. deliver is
// called (in softirq context/time) when the last segment has been
// processed. It returns the cycle at which the last bit arrives.
func (n *NIC) InjectMessage(now float64, msg Chunk, deliver func(now float64, msg Chunk)) float64 {
	segs := Segments(msg.Bytes)
	fl := &inflight{msg: msg, remaining: len(segs), deliver: deliver}
	var last float64
	for _, sz := range segs {
		arrive := n.Rx.Reserve(now, sz+WireOverhead)
		seg := Chunk{Bytes: sz, Meta: fl}
		n.E.At(arrive, func(t float64) { n.DeliverSegment(t, seg) })
		last = arrive
	}
	n.Rx.AddPayload(msg.Bytes)
	return last
}

// Transmit emits the transmit-side kernel work for sending an n-byte
// message whose user-space copy lives at userAddr, running in the calling
// thread (sendmsg executes on the caller's CPU): per-segment header
// construction, the user-to-kernel copy with checksum folded in, the
// device DMA read, and the wire reservation. txArena supplies the sk_buff
// placement; callers pass a per-CPU arena, mirroring the kernel's per-CPU
// slab caches — without that, transmit buffers bounce between packages.
// It returns the cycle at which the last bit leaves.
func (n *NIC) Transmit(ctx *sched.Ctx, buf *trace.Buffer, txArena *trace.Arena, userAddr uint64, nBytes int) float64 {
	if txArena == nil {
		txArena = n.SockArena
	}
	segs := Segments(nBytes)
	var last float64
	off := uint64(0)
	for i, sz := range segs {
		buf.Reset()
		kaddr := txArena.Alloc(uint64(sz))
		EmitTxHeader(buf, kaddr, i)
		EmitCopy(buf, kaddr, userAddr+off, sz)
		ctx.ExecBuffer(buf)
		n.M.DMARead(ctx.Now(), kaddr, sz)
		last = n.Tx.Reserve(ctx.Now(), sz+WireOverhead)
		off += uint64(sz)
	}
	n.Tx.AddPayload(nBytes)
	return last
}
