package aon

// kernelCosts are the per-message kernel-path costs in abstract instructions.
// They model the socket/syscall work a 2007-era Linux 2.6 network stack
// performs around the application-visible processing, and they are the
// main calibration surface for the absolute throughput of the FR use case
// (which is nothing but this overhead plus two copies).
type kernelCosts struct {
	// Connection is the per-request connection-handling path: accept or
	// keep-alive dispatch, epoll bookkeeping, fd table, timers.
	Connection int
	// RecvSyscall is the recvmsg path per message.
	RecvSyscall int
	// SendSyscall is the sendmsg path per message (excluding per-segment
	// work, which netsim charges separately).
	SendSyscall int
}

// defaultCosts reflect a 2007-era HTTP proxy on a 2.6 kernel: tens of
// thousands of instructions of socket, epoll and proxy bookkeeping per
// proxied request. They are calibrated so the FR use case lands below the
// gigabit ingress on one Pentium M core with roughly the headroom Figure 3
// implies (2CPm FR saturates the wire at a 1.5x scaling).
var defaultCosts = kernelCosts{
	Connection:  19000,
	RecvSyscall: 16000,
	SendSyscall: 14000,
}
