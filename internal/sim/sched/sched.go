// Package sched is the operating-system layer of the simulation: it maps
// software threads onto the logical CPUs of a simulated machine, runs them
// cooperatively, charges context switches (with TLB flushes on address-
// space changes), accounts idle time, and provides the timed-event and
// wait-queue primitives the network substrate and workloads build on.
//
// The paper's server application "uses POSIX threads to utilize multiple
// CPUs or cores ... kept equal to the number of (logical) CPUs" (Section
// 3.2.1); this package is the equivalent of that pthread/SMP-kernel layer
// for the simulated machine.
package sched

import (
	"container/heap"
	"fmt"

	"repro/internal/perf/cpu"
	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
)

// Proc is the behavior of a software thread. Step is invoked every time
// the thread is scheduled; it performs a bounded amount of work through
// the Ctx and returns what the thread wants to do next. Procs must
// tolerate spurious wakeups: a Step after a Wait must re-check its
// condition and Wait again if it no longer holds.
type Proc interface {
	Step(ctx *Ctx) Status
}

// ProcFunc adapts a function to the Proc interface.
type ProcFunc func(ctx *Ctx) Status

// Step implements Proc.
func (f ProcFunc) Step(ctx *Ctx) Status { return f(ctx) }

// StatusKind says what a thread does after a Step.
type StatusKind int

const (
	// Yield keeps the thread runnable; the scheduler may run a sibling
	// thread on the same CPU first (round-robin).
	Yield StatusKind = iota
	// Sleep blocks the thread until an absolute cycle time.
	Sleep
	// Wait blocks the thread until a Waiter is signaled.
	Wait
	// Done terminates the thread.
	Done
)

// Status is a Step's verdict.
type Status struct {
	Kind  StatusKind
	Until float64 // Sleep: absolute wake time in cycles
	On    *Waiter // Wait: condition to block on
}

// StatusYield returns a Yield status.
func StatusYield() Status { return Status{Kind: Yield} }

// StatusSleep returns a Sleep-until status.
func StatusSleep(until float64) Status { return Status{Kind: Sleep, Until: until} }

// StatusWait returns a Wait-on status.
func StatusWait(w *Waiter) Status { return Status{Kind: Wait, On: w} }

// StatusDone returns a Done status.
func StatusDone() Status { return Status{Kind: Done} }

type threadState int

const (
	stateReady threadState = iota
	stateBlocked
	stateDone
)

// KernelProcessID marks kernel-context threads (softirq): they run in
// whatever address space is current, so switching to or from them never
// flushes the TLB.
const KernelProcessID = 0

// Thread is one software thread bound to a logical CPU.
type Thread struct {
	Name      string
	ProcessID int // address-space identity; switches between different IDs flush the TLB
	CPU       int // logical CPU binding
	// Priority orders threads that become runnable at the same instant:
	// higher runs first. Softirq threads outrank user threads, matching
	// kernel preemption semantics at the step granularity the engine
	// can express.
	Priority int

	proc    Proc
	state   threadState
	readyAt float64 // earliest cycle the thread may run
}

// Ready reports whether the thread is runnable (possibly in the future).
func (t *Thread) Ready() bool { return t.state == stateReady }

// Finished reports whether the thread has completed.
func (t *Thread) Finished() bool { return t.state == stateDone }

// Waiter is a wait queue (condition-variable analogue). Signal wakes all
// waiting threads and fires all registered one-shot callbacks; each waker
// re-checks its condition (spurious wakeups are part of the contract).
type Waiter struct {
	waiting []*Thread
	fns     []func(now float64)
}

// OnSignal registers a one-shot callback fired at the next Signal. It is
// how event-driven actors (traffic sources, NICs) block on backpressure
// without occupying a simulated CPU.
func (w *Waiter) OnSignal(fn func(now float64)) {
	w.fns = append(w.fns, fn)
}

// Signal wakes every waiting thread at cycle now and fires callbacks.
func (w *Waiter) Signal(now float64) {
	for _, t := range w.waiting {
		if t.state == stateBlocked {
			t.state = stateReady
			if now > t.readyAt {
				t.readyAt = now
			}
		}
	}
	w.waiting = w.waiting[:0]
	if len(w.fns) > 0 {
		fns := w.fns
		w.fns = nil
		for _, fn := range fns {
			fn(now)
		}
	}
}

// Ctx is what a Proc sees while running.
type Ctx struct {
	E      *Engine
	Thread *Thread
	LC     *cpu.LCPU
}

// Now returns the running thread's current cycle time.
func (c *Ctx) Now() float64 { return c.LC.NowF() }

// Exec runs a micro-op stream on the thread's logical CPU, advancing time.
func (c *Ctx) Exec(ops []trace.Op) { c.LC.Execute(ops) }

// ExecBuffer runs a trace buffer on the thread's logical CPU.
func (c *Ctx) ExecBuffer(b *trace.Buffer) { c.LC.Execute(b.Ops) }

// event is a timed callback (packet delivery, timer).
type event struct {
	at  float64
	seq uint64 // FIFO tiebreak for equal times
	fn  func(now float64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// cpuSlot is the per-logical-CPU run queue.
type cpuSlot struct {
	lc           *cpu.LCPU
	threads      []*Thread
	lastThread   *Thread
	rr           int
	lastDispatch uint64 // engine step at which this slot last ran
}

// Engine drives the whole simulation: one machine, its threads, and the
// timed-event queue. It is strictly single-goroutine: one run is one
// goroutine driving its own engine and machine, and runs share nothing,
// so separate runs may proceed on separate goroutines at once.
type Engine struct {
	M     *machine.Machine
	Space *trace.AddressSpace

	slots    []*cpuSlot
	threads  []*Thread
	events   eventHeap
	eventSeq uint64

	// Steps counts Proc invocations, a progress measure for watchdogs.
	Steps uint64
}

// NewEngine wraps a machine in a scheduler.
func NewEngine(m *machine.Machine) *Engine {
	e := &Engine{M: m, Space: trace.NewAddressSpace()}
	for _, lc := range m.LCPUs {
		e.slots = append(e.slots, &cpuSlot{lc: lc})
	}
	return e
}

// CPUs returns the number of logical CPUs available for binding.
func (e *Engine) CPUs() int { return len(e.slots) }

// Spawn creates a thread bound to logical CPU cpuIdx, belonging to the
// given address space, and makes it runnable at time startAt.
func (e *Engine) Spawn(name string, cpuIdx, processID int, startAt float64, p Proc) *Thread {
	if cpuIdx < 0 || cpuIdx >= len(e.slots) {
		panic(fmt.Sprintf("sched: spawn %q on CPU %d of %d", name, cpuIdx, len(e.slots)))
	}
	t := &Thread{Name: name, ProcessID: processID, CPU: cpuIdx, proc: p, state: stateReady, readyAt: startAt}
	e.threads = append(e.threads, t)
	e.slots[cpuIdx].threads = append(e.slots[cpuIdx].threads, t)
	return t
}

// At schedules fn to run at cycle t (clamped to be non-negative).
func (e *Engine) At(t float64, fn func(now float64)) {
	if t < 0 {
		t = 0
	}
	e.eventSeq++
	heap.Push(&e.events, event{at: t, seq: e.eventSeq, fn: fn})
}

// nextThread picks, for one slot, the runnable thread with the earliest
// effective start, preferring round-robin fairness among simultaneously
// ready threads.
func (s *cpuSlot) nextThread() (*Thread, float64) {
	var best *Thread
	var bestStart float64
	n := len(s.threads)
	for i := 0; i < n; i++ {
		t := s.threads[(s.rr+i)%n]
		if t.state != stateReady {
			continue
		}
		start := t.readyAt
		if now := s.lc.NowF(); now > start {
			start = now
		}
		if best == nil || start < bestStart ||
			(start == bestStart && t.Priority > best.Priority) {
			best, bestStart = t, start
		}
	}
	return best, bestStart
}

// Run executes the simulation until stop returns true, or until no thread
// is runnable and no event is pending (quiescence). It returns the final
// machine time in cycles.
func (e *Engine) Run(stop func(e *Engine) bool) float64 {
	for {
		if stop != nil && stop(e) {
			break
		}

		// Earliest runnable thread across all CPUs. Ties on start time
		// go to the least-recently-dispatched CPU so equal-time wakeups
		// (both workers woken by the same queue push) share the work —
		// without this, a worker bound to CPU1 starves behind CPU0's.
		var slot *cpuSlot
		var thread *Thread
		var start float64
		for _, s := range e.slots {
			t, st := s.nextThread()
			if t == nil {
				continue
			}
			better := thread == nil || st < start ||
				(st == start && s.lastDispatch < slot.lastDispatch)
			if better {
				slot, thread, start = s, t, st
			}
		}

		// Earliest event.
		haveEvent := len(e.events) > 0
		if thread == nil && !haveEvent {
			break // quiescent
		}
		if haveEvent && (thread == nil || e.events[0].at <= start) {
			ev := heap.Pop(&e.events).(event)
			ev.fn(ev.at)
			continue
		}

		// Run the chosen thread for one step.
		lc := slot.lc
		lc.SyncTo(start)
		if slot.lastThread != thread {
			if last := slot.lastThread; last != nil {
				sameSpace := last.ProcessID == thread.ProcessID ||
					last.ProcessID == KernelProcessID ||
					thread.ProcessID == KernelProcessID
				lc.ContextSwitch(sameSpace)
			}
			slot.lastThread = thread
		}
		slot.rr++
		slot.lastDispatch = e.Steps
		// The running flag drives SMT issue-slot sharing: it stays set
		// across Yields (the thread still occupies the logical CPU) and
		// clears when the thread blocks, sleeps or exits, so a sibling
		// hardware thread sees the pipeline freed during I/O waits —
		// the mechanism behind Hyperthreading's better scaling on
		// I/O-intensive workloads (Section 5.1).
		lc.SetRunning(true)
		e.Steps++
		st := thread.proc.Step(&Ctx{E: e, Thread: thread, LC: lc})

		switch st.Kind {
		case Yield:
			thread.readyAt = lc.NowF()
		case Sleep:
			thread.state = stateReady
			thread.readyAt = st.Until
			lc.SetRunning(false)
		case Wait:
			thread.state = stateBlocked
			st.On.waiting = append(st.On.waiting, thread)
			lc.SetRunning(false)
		case Done:
			thread.state = stateDone
			lc.SetRunning(false)
		}
	}
	return e.M.MaxNow()
}

// AllDone reports whether every spawned thread has finished.
func (e *Engine) AllDone() bool {
	for _, t := range e.threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}
