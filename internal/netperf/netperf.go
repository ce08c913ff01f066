// Package netperf is a workalike of the bulk-data-transfer benchmark the
// paper uses for its baseline measurements (Section 3.2.2): the TCP stream
// test in two modes.
//
//   - End-to-end: the system under test runs the netperf sender against a
//     remote netserver across the gigabit link. Throughput is limited by
//     the wire; the interesting observable is how much CPU the stack
//     consumes (and how idle the other processors sit).
//   - Loopback: netperf and netserver run on the same host. No wire is
//     involved; throughput is limited by memory copies, cache behaviour
//     and — on multi-processor configurations — coherence traffic between
//     the processing units, the mechanism behind Figure 2's loopback
//     ordering.
package netperf

import (
	"repro/internal/netsim"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
)

// sendSize is netperf's default send-buffer size for the TCP stream test.
const sendSize = 16 << 10

// loopbackSockBytes is the loopback socket-buffer size (the Linux 2.6
// tcp_wmem default). It bounds the data in flight between the two
// processes: the receiver consumes lines the sender wrote moments ago, so
// on multi-core configurations they are still dirty in the sender's L1 —
// the coherence traffic behind the paper's 2CPm and 2PPx loopback
// degradation (Figure 2, Table 3).
const loopbackSockBytes = 16 << 10

// Mode selects the benchmark topology.
type Mode int

const (
	// Loopback runs sender and receiver on the same simulated host.
	Loopback Mode = iota
	// EndToEnd runs the sender against a remote sink over the link.
	EndToEnd
)

func (m Mode) String() string {
	if m == Loopback {
		return "loopback"
	}
	return "end-to-end"
}

// Bench is one netperf run's wiring.
type Bench struct {
	E    *sched.Engine
	Mode Mode

	// Loopback plumbing.
	sock *netsim.SockBuf

	// End-to-end plumbing.
	tx *netsim.Link

	// BytesReceived counts payload delivered to the consumer (loopback)
	// or onto the wire (end-to-end).
	BytesReceived uint64
}

// New wires a netperf bench into an engine. For end-to-end mode, tx is the
// transmit link to the remote netserver (pass nil for loopback).
func New(e *sched.Engine, mode Mode, tx *netsim.Link) *Bench {
	b := &Bench{E: e, Mode: mode, tx: tx}
	if mode == Loopback {
		b.sock = netsim.NewSockBuf(loopbackSockBytes)
	}
	return b
}

// Spawn starts the benchmark's threads. In loopback mode netperf and
// netserver are separate processes: on a single-CPU configuration they
// time-share CPU0 (with address-space switches); with two or more logical
// CPUs they run on CPU0 and CPU1 as the 2.6 kernel would spread them.
func (b *Bench) Spawn() {
	switch b.Mode {
	case Loopback:
		recvCPU := 0
		if b.E.CPUs() > 1 {
			recvCPU = 1
		}
		b.E.Spawn("netperf-send", 0, 1, 0, b.senderLoopback())
		b.E.Spawn("netserver-recv", recvCPU, 2, 0, b.receiverLoopback())
	case EndToEnd:
		b.E.Spawn("netperf-send", 0, 1, 0, b.senderWire())
	}
}

// senderLoopback is the netperf process: copy the user buffer into the
// socket buffer (through the loopback device there is one copy in and one
// copy out, plus per-MSS protocol processing) and block on flow control.
func (b *Bench) senderLoopback() sched.Proc {
	proc := b.E.Space.NewProcess()
	userBuf := proc.Alloc(sendSize)
	// The loopback skb data cycles through the socket-buffer window: at
	// most SockBufBytes are ever in flight, so the receiver pulls lines
	// the sender wrote very recently — still dirty in the sender's L1 on
	// a multi-core configuration. This recycling is what exposes the
	// cross-core coherence cost the paper measures on 2CPm and 2PPx.
	sockArena := trace.SubArena(proc, 2*loopbackSockBytes)
	metaArena := trace.SubArena(proc, 1<<20)
	buf := trace.NewBuffer(1 << 14)
	return sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		if !b.sock.HasSpace(sendSize) {
			return sched.StatusWait(&b.sock.NotFull)
		}
		buf.Reset()
		netsim.EmitSyscall(buf, metaArena.Base(), sendSyscallCost)
		off := 0
		first := uint64(0)
		for _, seg := range netsim.Segments(sendSize) {
			kaddr := sockArena.Alloc(uint64(seg))
			if off == 0 {
				first = kaddr
			}
			netsim.EmitTxHeader(buf, kaddr, off/netsim.MSS)
			netsim.EmitCopy(buf, kaddr, userBuf+uint64(off), seg)
			off += seg
		}
		ctx.ExecBuffer(buf)
		// The chunk becomes visible to the receiver only after the copy
		// work is done (push timestamped post-execution).
		b.sock.Push(netsim.Chunk{Bytes: sendSize, Addr: first}, ctx.Now())
		return sched.StatusYield()
	})
}

// receiverLoopback is the netserver process: pop, per-segment receive
// processing, copy to user space.
func (b *Bench) receiverLoopback() sched.Proc {
	proc := b.E.Space.NewProcess()
	userBuf := proc.Alloc(sendSize)
	metaArena := trace.SubArena(proc, 1<<20)
	buf := trace.NewBuffer(1 << 14)
	return sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		chunk, ok := b.sock.Claim()
		if !ok {
			return sched.StatusWait(&b.sock.NotEmpty)
		}
		buf.Reset()
		netsim.EmitSyscall(buf, metaArena.Base(), recvSyscallCost)
		off := 0
		for i, seg := range netsim.Segments(chunk.Bytes) {
			netsim.EmitRxHeader(buf, chunk.Addr+uint64(off), i)
			netsim.EmitCopy(buf, userBuf+uint64(off), chunk.Addr+uint64(off), seg)
			off += seg
		}
		ctx.ExecBuffer(buf)
		// Window reopens only once the data has left the socket buffer.
		b.sock.Free(chunk.Bytes, ctx.Now())
		b.BytesReceived += uint64(chunk.Bytes)
		return sched.StatusYield()
	})
}

// senderWire is the end-to-end sender: full transmit-side stack work per
// segment, DMA to the NIC, and TCP-window-limited wire pacing. The remote
// netserver is an infinite sink.
func (b *Bench) senderWire() sched.Proc {
	proc := b.E.Space.NewProcess()
	userBuf := proc.Alloc(sendSize)
	sockArena := trace.SubArena(proc, 256<<10)
	buf := trace.NewBuffer(1 << 14)
	m := b.E.M
	windowCycles := m.Cycles(float64(netsim.SockBufBytes*8) / b.tx.Bps)
	segTime := m.Cycles(float64(netsim.MSS+netsim.WireOverhead) * 8 / b.tx.Bps)
	return sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		// TCP flow control: never run more than one socket buffer ahead
		// of the wire. Wake only once at least a full segment of window
		// has reopened, so the sleep always advances simulated time.
		if lag := b.tx.Backlog(ctx.Now()); lag > windowCycles {
			return sched.StatusSleep(ctx.Now() + (lag - windowCycles) + segTime)
		}
		buf.Reset()
		netsim.EmitSyscall(buf, sockArena.Base(), sendSyscallCost)
		off := 0
		for i, seg := range netsim.Segments(sendSize) {
			kaddr := sockArena.Alloc(uint64(seg))
			netsim.EmitTxHeader(buf, kaddr, i)
			netsim.EmitCopy(buf, kaddr, userBuf+uint64(off), seg)
			off += seg
		}
		ctx.ExecBuffer(buf)
		for _, seg := range netsim.Segments(sendSize) {
			m.DMARead(ctx.Now(), sockArena.Base(), seg)
			b.tx.Reserve(ctx.Now(), seg+netsim.WireOverhead)
		}
		b.tx.AddPayload(sendSize)
		b.BytesReceived += sendSize
		return sched.StatusYield()
	})
}

// Syscall path costs per 16 KB send/recv — far fewer crossings per byte
// than the AON message path since netperf streams large buffers.
const (
	sendSyscallCost = 1800
	recvSyscallCost = 1500
)
