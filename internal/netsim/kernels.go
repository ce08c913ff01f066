package netsim

import (
	"sync/atomic"

	"repro/internal/perf/trace"
)

// Instrumented network-stack kernels. Each Emit* function produces the
// micro-op stream of one operation of the simulated kernel's TCP/IP stack.
// Branch sites use stable synthetic PCs so the predictors see the same
// static code across calls, and branch outcomes follow the actual control
// flow (loop back-edges taken until the final iteration, validity checks
// almost always falling through), which is what gives the netperf rows of
// Table 3 their characteristic ~1% misprediction ratios.

var (
	copyCode = trace.NewCodeRegion(256)
	csumCode = trace.NewCodeRegion(256)
	hdrCode  = trace.NewCodeRegion(1024)
	syscCode = trace.NewCodeRegion(1024)

	copyLoopPC  = copyCode.Site()
	copyTailPC  = copyCode.Site()
	csumLoopPC  = csumCode.Site()
	csumOKPC    = csumCode.Site()
	hdrValidPC  = hdrCode.Site()
	hdrOptsPC   = hdrCode.Site()
	hdrAckPC    = hdrCode.Site()
	hdrWndPC    = hdrCode.Site()
	hdrTimerPC  = hdrCode.Site()
	hdrPushPC   = hdrCode.Site()
	syscLoopPC  = syscCode.Site()
	syscFlagPC  = syscCode.Site()
	syscEpollPC = syscCode.Site()
)

// EmitCopy emits the stream of copying n bytes from src to dst: one load
// and one store per machine word, with the loop unrolled two words per
// iteration (one back-edge branch per two words). The resulting abstract
// mix of one branch in five lands the netperf rows of Table 3 on the
// paper's branch frequencies: ~34% of retired events on the Pentium M
// (which counts two branch events per actual branch) and ~19% on Xeon.
// It is the workhorse of both netperf modes and of every socket
// read/write.
func EmitCopy(em trace.Emitter, dst, src uint64, n int) {
	words := memWords(n)
	for w := 0; w < words; w += 2 {
		k := 2
		if w+k > words {
			k = words - w
		}
		em.Load(src+uint64(w)*trace.WordBytes, k)
		em.Store(dst+uint64(w)*trace.WordBytes, k)
		em.Branch(copyLoopPC, w+k < words)
	}
	em.Branch(copyTailPC, n%trace.WordBytes != 0)
}

// emitChecksum emits the stream of the Internet checksum over n bytes at
// addr: one load and one add per word. The final compare branch depends
// on the data (modelled via the low bits of the payload content sum when
// available).
func emitChecksum(em trace.Emitter, addr uint64, n int, data []byte) {
	words := memWords(n)
	for w := 0; w < words; w += 2 {
		k := 2
		if w+k > words {
			k = words - w
		}
		em.Load(addr+uint64(w)*trace.WordBytes, k)
		em.ALU(k)
		em.Branch(csumLoopPC, w+k < words)
	}
	ok := true
	if len(data) > 0 {
		// Data-dependent but almost always "checksum valid".
		ok = data[0]%97 != 0
	}
	em.Branch(csumOKPC, ok)
}

// segSeq is the global TCP segment sequence the periodic control branches
// key off. Real stacks branch on conditions with medium-period regularity
// (delayed-ACK every other segment, window updates every few segments,
// timer work on a coarser period). Predictors with long global histories
// learn the longer periods; short-history predictors cannot — one of the
// structural reasons the Pentium M's misprediction ratios sit well below
// Netburst's in Table 3/Table 6. The counter is shared across all
// simulated machines in the process and atomic, so simulator runs may
// proceed concurrently (e.g. the harness's background model warming next
// to a foreground run); interleaving only dephases the medium-period
// patterns, which is noise the predictors already see.
var segSeq atomic.Uint64

// EmitRxHeader emits the per-segment receive-side header processing: IP
// validation, TCP state lookup, sequence/ack handling.
func EmitRxHeader(em trace.Emitter, hdrAddr uint64, segIndex int) {
	seq := segSeq.Add(1)
	em.Load(hdrAddr, 6) // header words
	em.ALU(22)          // field extraction, validation arithmetic
	em.Branch(hdrValidPC, true)
	em.Branch(hdrOptsPC, segIndex == 0) // options parsed on first segment
	em.Load(hdrAddr+64, 8)              // socket/TCB lookup
	em.ALU(30)                          // state machine, window update
	em.Branch(hdrAckPC, seq%2 == 0)     // delayed ACK
	em.Branch(hdrWndPC, seq%7 == 0)     // window update
	em.Branch(hdrTimerPC, seq%13 == 0)  // timer/bookkeeping slow path
	em.Store(hdrAddr+128, 6)            // TCB writeback
	em.ALU(12)
	em.Branch(hdrPushPC, true)
}

// EmitTxHeader emits the per-segment transmit-side header construction:
// TCB read, header build, checksum of the header, queueing to the device.
func EmitTxHeader(em trace.Emitter, hdrAddr uint64, segIndex int) {
	seq := segSeq.Add(1)
	em.Load(hdrAddr, 8) // TCB
	em.ALU(28)          // header assembly, seq arithmetic
	em.Store(hdrAddr+64, 8)
	em.ALU(14) // qdisc enqueue
	em.Branch(hdrValidPC, true)
	em.Branch(hdrAckPC, segIndex != 0)
	em.Branch(hdrWndPC, seq%7 == 0)
	em.Branch(hdrTimerPC, seq%13 == 0)
}

// EmitSyscall emits the fixed cost of one socket system call (user/kernel
// crossing, fd lookup, locking): nInstr of work walking scattered kernel
// metadata at metaAddr. The metadata stride defeats spatial locality the
// way real socket/file/epoll structures do, which is what keeps the
// network-I/O-intensive workloads memory-bound (Figure 4's FR > CBR > SV
// L2MPI ordering). The kernel fast paths are short basic blocks — about
// one branch in four instructions.
func EmitSyscall(em trace.Emitter, metaAddr uint64, nInstr int) {
	iters := nInstr / 8
	if iters < 1 {
		iters = 1
	}
	stride := uint64(192) // three lines apart: no spatial reuse
	for i := 0; i < iters; i++ {
		em.Load(metaAddr+uint64(i)*stride, 1)
		em.ALU(4)
		em.Branch(syscFlagPC, i&3 == 0) // state checks with mixed outcomes
		em.ALU(1)
		em.Branch(syscLoopPC, i+1 < iters)
	}
	em.Branch(syscEpollPC, true)
}
