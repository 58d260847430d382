package sim

import (
	"fmt"
	"iter"
)

// ErrKilled is the panic value used to unwind a process coroutine when it
// is killed or released. Process bodies must not recover from it; the
// kernel's wrapper does.
var ErrKilled = fmt.Errorf("sim: process killed")

// Proc is a simulated process: a coroutine that runs only when the kernel
// resumes it, and yields control back whenever it blocks (Sleep, park,
// mailbox Get) or finishes.
type Proc struct {
	k    *Kernel
	name string

	// next resumes the coroutine until it parks or finishes (a no-op once
	// it has returned); a panic in the body resurfaces from next, in
	// kernel context. yield, called from inside the coroutine, suspends it
	// and reports false once stop has been called. stop unwinds a
	// suspended or never-started coroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// stepFn and unparkFn are the two closures every park/unpark cycle
	// schedules. They are built once at Spawn so that the simulation hot
	// path (Sleep, mailbox waits) allocates nothing per operation.
	stepFn   func()
	unparkFn func()

	// Timed-park state (SleepPoll): pollLeft is the time still to sleep
	// after the next armed step, pollEvery the step length, and pollReady
	// the backlog whose non-empty Len ends the sleep at a step boundary
	// (nil for a plain Sleep). quietQueued marks p's step queued in the
	// lane as an empty check (counted in Kernel.laneQuiet).
	pollLeft  Time
	pollEvery Time
	pollReady Backlog

	// slot is p's index in the kernel's unfinished list.
	slot int

	killed      bool
	finished    bool
	parked      bool
	quietQueued bool

	// onKill detaches the proc from the wait queue (e.g. a mailbox waiter
	// list) it is enqueued on at the moment it is killed. A process blocks
	// on at most one queue at a time, so a single slot suffices.
	onKill func()

	// heap holds p's slots in the kernel's two process heaps, off the
	// fields every resume reads: its pending empty check (checksHeap) and
	// its last boundary before the final step while it polls (lastsHeap).
	heap [2]heapNode
}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It returns the Proc handle immediately; the body
// does not run until the kernel loop reaches the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, slot: len(k.unfinished)}
	p.stepFn = p.step
	p.unparkFn = p.unpark
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if p.killed {
			// Killed before ever running: do not execute the body.
			return
		}
		fn(p)
	})
	k.unfinished = append(k.unfinished, p)
	k.liveProcs++
	k.At(k.now, p.stepFn)
	return p
}

// exit is the coroutine's deferred epilogue: it absorbs the ErrKilled
// unwind and turns any other panic into one that names the process.
func (p *Proc) exit() {
	r := recover()
	p.finish()
	if r != nil && r != any(ErrKilled) {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
}

// finish marks p finished and removes it from the kernel's unfinished list.
func (p *Proc) finish() {
	k := p.k
	p.finished = true
	if !p.killed {
		k.liveProcs--
	}
	last := len(k.unfinished) - 1
	k.unfinished[p.slot] = k.unfinished[last]
	k.unfinished[p.slot].slot = p.slot
	k.unfinished[last] = nil
	k.unfinished = k.unfinished[:last]
}

// park blocks the calling process until another activity calls unpark. It
// panics with ErrKilled if the process is killed while parked, or released
// by Kernel.Close.
func (p *Proc) park() {
	p.parked = true
	resumed := p.yield(struct{}{})
	p.parked = false
	if !resumed || p.killed {
		panic(ErrKilled)
	}
}

// step is the event that resumes p. While p sleeps in SleepPoll it first
// checks, in kernel context and at the queue position where the resumed
// process would have looked, whether the process has anything to do: with
// time left and an empty backlog it arms the next check itself and leaves
// the coroutine parked. A killed or finished process is always resumed (a
// no-op once it has returned).
func (p *Proc) step() {
	k := p.k
	if p.quietQueued {
		p.quietQueued = false
		k.laneQuiet--
	}
	if r := p.pollReady; r != nil && p.pollLeft > 0 && !p.killed && r.Len() == 0 {
		p.sleepStep()
		return
	}
	if !p.finished {
		k.resumes++
	}
	p.next()
}

// fire runs p's pending empty check at its step boundary the way the step
// timer it stands for would: it queues p's step behind everything already
// pending at this instant.
func (p *Proc) fire() {
	k := p.k
	if k.laneLen < laneCap {
		p.quietQueued = true
		k.laneQuiet++
	}
	k.At(k.now, p.stepFn)
}

// backlogged is called when work is put in the backlog p polls: p's next
// check will resume it, so that check now bounds every lookahead horizon.
// A pending check moves to the heap with its (at, seq) unchanged.
func (p *Proc) backlogged() {
	k := p.k
	if p.quietQueued {
		p.quietQueued = false
		k.laneQuiet--
	}
	if c := &p.heap[checksHeap]; c.in {
		at, seq := c.at, c.seq
		k.checks.remove(p)
		k.queue.push(scheduled{at: at, seq: seq, fn: p.unparkFn})
	}
}

// unpark schedules p to resume at the current virtual time. It is the only
// legal way to wake a parked process.
func (p *Proc) unpark() {
	p.k.At(p.k.now, p.stepFn)
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the calling process for d nanoseconds of virtual time.
// It models local computation as well as pure waiting; the network and CPU
// layers charge their costs through Sleep.
func (p *Proc) Sleep(d Time) { p.SleepPoll(d, d, nil) }

// Backlog is the work queue a polling sleep watches. Mailbox implements
// it: a Put into a watched mailbox tells the kernel that the polling
// process's next check will find work.
type Backlog interface {
	Len() int
	// watch makes p the process polling the backlog (nil: none).
	watch(p *Proc)
}

// SleepPoll blocks the calling process for up to d of virtual time, cut
// into steps of at most every. At each step boundary before the last it
// returns early if ready holds anything, and it reports the time left to
// sleep. It is exactly a loop of Sleep(min(d, every)) calls that checks
// ready.Len() after each wakeup, except that a check finding nothing runs
// in kernel context and never resumes the process, and that checks which
// cannot find anything are not run at all (see sleepStep). Every polling
// sleep on one kernel must use the same step length.
func (p *Proc) SleepPoll(d, every Time, ready Backlog) (left Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return 0
	}
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive poll step %v", every))
	}
	k := p.k
	p.pollLeft, p.pollEvery, p.pollReady = d, every, ready
	if ready != nil && d > every {
		if k.pollStep == 0 {
			k.pollStep = every
		} else if every != k.pollStep {
			panic(fmt.Sprintf("sim: poll step %v differs from the kernel's %v", every, k.pollStep))
		}
		ready.watch(p)
		k.lasts.push(p, k.now+(d-1)/every*every, 0)
	}
	p.sleepStep()
	p.park()
	if ready != nil {
		p.endPoll()
	}
	p.pollReady = nil
	return p.pollLeft
}

// endPoll ends a polling sleep, early or not: p stops watching its
// backlog, and its last boundary stops bounding the lookahead horizon.
func (p *Proc) endPoll() {
	p.pollReady.watch(nil)
	if p.heap[lastsHeap].in {
		p.k.lasts.remove(p)
	}
}

// sleepStep arms the next step of a timed park: the wakeup that ends the
// sleep, or a check at a later step boundary.
//
// A check that would find the backlog empty changes nothing, so with an
// empty backlog the check is armed at the first boundary at or after the
// lookahead horizon (Kernel.horizon), not one step ahead: before the
// horizon nothing can put work in any backlog, so every check in between
// would find nothing. Armed early, the check still runs where its step
// timer would have, since no other event gets scheduled between the
// arming and the instant that timer would have been armed. Two limits
// keep that true among processes polling on one grid: a check never
// passes the last boundary before the final step (the final wakeup is
// armed from there, as one step at a time would arm it: every polling
// process's last boundary bounds the horizon), nor a check armed earlier
// at this same instant, which is on this process's grid and goes first.
func (p *Proc) sleepStep() {
	k := p.k
	left, every, ready := p.pollLeft, p.pollEvery, p.pollReady
	if ready == nil || left <= every {
		if p.heap[lastsHeap].in {
			k.lasts.remove(p)
		}
		step := min(left, every)
		p.pollLeft -= step
		k.After(step, p.unparkFn)
		return
	}
	if ready.Len() > 0 {
		// The next check resumes p: it bounds every horizon from the heap.
		p.pollLeft -= every
		k.After(every, p.unparkFn)
		return
	}
	steps := (left - 1) / every // boundaries before the last step
	if h := k.horizon(); h < k.now+steps*every {
		steps = max(1, (h-k.now+every-1)/every)
	}
	if k.capAt == k.now {
		steps = min(steps, (k.capTo-k.now)/every)
	}
	at := k.now + steps*every
	k.capAt, k.capTo = k.now, at
	p.pollLeft -= steps * every
	k.seq++
	k.checks.push(p, at, k.seq)
}

// Yield parks the process and immediately reschedules it, letting every
// other activity pending at the current instant run first.
func (p *Proc) Yield() {
	p.unpark()
	p.park()
}

// Park blocks the process until another activity calls Unpark, or until it
// is killed (unwinding with ErrKilled). It is the low-level primitive for
// callers that drive a process's progress from kernel events — e.g. the
// daemon's batched sender-log replay, which blocks the serving process
// once while an event chain emits the replay set.
func (p *Proc) Park() { p.park() }

// Unpark schedules a parked process to resume at the current virtual time.
// It must only be called on a process currently blocked in Park (calling
// it on a running or finished process corrupts the scheduler handshake).
func (p *Proc) Unpark() { p.unpark() }

// Kill marks p dead and, if it is parked, wakes it so that it unwinds with
// ErrKilled. Killing an already-dead process is a no-op. Kill must be called
// from kernel context or from another process (never from p itself).
func (p *Proc) Kill() {
	if p.killed || p.finished {
		return
	}
	p.killed = true
	p.k.liveProcs--
	if p.pollReady != nil {
		// The unwind skips SleepPoll's own endPoll.
		p.endPoll()
	}
	if p.onKill != nil {
		p.onKill()
		p.onKill = nil
	}
	if p.parked {
		p.unpark()
	}
}

// Killed reports whether Kill has been called on p.
func (p *Proc) Killed() bool { return p.killed }

// Finished reports whether the process body has returned or unwound.
func (p *Proc) Finished() bool { return p.finished }
