package sim

import (
	"fmt"
	"math/rand"
)

// Kernel is the discrete-event simulation core. It owns the virtual clock,
// the pending-event queue and the set of live processes. A Kernel is not
// safe for concurrent use from multiple OS threads; the whole point is that
// exactly one simulated activity runs at a time.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool

	// lane is a FIFO ring of events scheduled for the current instant
	// (process wakeups, spawn starts, poll checks): they run in seq order
	// without a heap push and pop each. It lives inline in the Kernel so it
	// never allocates; an At(now) that finds it full goes to the heap,
	// which RunUntil merges with the lane by (at, seq).
	lane     [laneCap]scheduled
	laneHead int
	laneLen  int

	// events counts executed events, resumes coroutine resumptions: plain
	// counters of the kernel's work, read by benchmarks.
	events  uint64
	resumes uint64

	// unfinished holds every spawned process whose coroutine has not yet
	// returned (killed-but-not-unwound ones included), so Close can
	// release them; each Proc records its own slot.
	unfinished []*Proc
	liveProcs  int

	// Lookahead state of the polling sleeps (Proc.SleepPoll). checks
	// holds each pending step-boundary check whose backlog is empty, by
	// (at, seq): RunUntil merges it with the lane and the heap, but it
	// bounds no lookahead horizon. lasts holds every polling process that
	// has not armed its last step yet, keyed by its last intermediate
	// boundary, the latest instant that process can still resume from
	// inside its sleep. laneQuiet counts the lane entries that are such
	// empty checks. capAt and capTo record the nearest check armed at the
	// current instant (see Proc.sleepStep), deadline the running
	// RunUntil's, and pollStep the one step length every polling sleep
	// on the kernel shares.
	checks    procHeap
	lasts     procHeap
	laneQuiet int
	capAt     Time
	capTo     Time
	deadline  Time
	pollStep  Time
}

// The Proc.heap slots of the two process heaps.
const (
	checksHeap = iota
	lastsHeap
)

// laneCap is the same-instant lane's capacity (a power of two).
const laneCap = 128

// NewKernel returns a kernel with the clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		checks: procHeap{which: checksHeap},
		lasts:  procHeap{which: lastsHeap},
		capAt:  -1,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All stochastic
// decisions in a simulation must draw from this source; anything else breaks
// reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute virtual time t; an event for the
// current instant joins the FIFO lane instead of the heap. Scheduling in
// the past is a programming error and panics: silently reordering time
// would corrupt causality in every layer above.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		//lint:allow noalloctrans formatting happens only on the fatal scheduling-in-the-past abort, never on a live run
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	if t == k.now && k.laneLen < laneCap {
		k.lane[(k.laneHead+k.laneLen)&(laneCap-1)] = scheduled{at: t, seq: k.seq, fn: fn}
		k.laneLen++
		return
	}
	k.queue.push(scheduled{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events until the queue drains or Stop is called, and returns
// the final virtual time. Processes blocked forever (e.g. a Recv that is
// never matched) do not keep Run alive: with no pending event there is no
// future in which they could wake.
func (k *Kernel) Run() Time {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps ≤ deadline and returns the final
// virtual time (which may be earlier than deadline if the queue drains).
// The clock never moves backwards: a deadline before now returns now.
// Lane, heap and pending polling checks (k.checks) run merged in
// (at, seq) order, the checks where the step timers they stand for would
// run. The heap may hold same-instant events too: those scheduled for now
// before the clock got here, lane overflow, and checks with work waiting.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.deadline = deadline
	for !k.stopped {
		src, at, seq := srcNone, Time(0), uint64(0)
		if k.laneLen > 0 {
			head := &k.lane[k.laneHead]
			src, at, seq = srcLane, head.at, head.seq
		}
		if k.queue.Len() > 0 {
			if top := &k.queue.items[0]; src == srcNone || top.at < at || top.at == at && top.seq < seq {
				src, at, seq = srcHeap, top.at, top.seq
			}
		}
		if p := k.checks.root; p != nil {
			if c := &p.heap[checksHeap]; src == srcNone || c.at < at || c.at == at && c.seq < seq {
				src, at = srcCheck, c.at
			}
		}
		if src == srcNone {
			return k.now
		}
		if at > deadline {
			k.now = max(k.now, deadline)
			return k.now
		}
		k.now = at
		k.events++
		switch src {
		case srcLane:
			head := &k.lane[k.laneHead]
			fn := head.fn
			head.fn = nil
			k.laneHead = (k.laneHead + 1) & (laneCap - 1)
			k.laneLen--
			fn()
		case srcHeap:
			k.queue.pop().fn()
		default:
			k.checks.pop().fire()
		}
	}
	return k.now
}

// The event sources RunUntil merges.
const (
	srcNone = iota
	srcLane
	srcHeap
	srcCheck
)

// horizon is the earliest instant at which anything could put work in
// any polling process's backlog, or resume a process: the heap top, the
// last intermediate boundary of every polling process, and now if the
// lane holds anything but empty checks. A pending check with work
// waiting sits in the heap, so it bounds the horizon; an empty one does
// not. The running RunUntil's deadline bounds it too, so that events
// scheduled from outside the loop between two RunUntil calls find every
// check where one step at a time would have put it.
func (k *Kernel) horizon() Time {
	if k.laneLen > k.laneQuiet {
		return k.now
	}
	h := k.deadline
	if h < 1<<62 {
		h++
	}
	if k.queue.Len() > 0 {
		h = min(h, k.queue.items[0].at)
	}
	if p := k.lasts.root; p != nil {
		h = min(h, p.heap[lastsHeap].at)
	}
	return h
}

// Close releases every process that has not finished — parked server
// loops, ranks cut off by a horizon or a virtual-time cap, killed processes
// whose unwind event never ran — by unwinding each one with ErrKilled, so
// nothing a run allocated outlives it. Call it once the run is over: the
// kernel must not run again afterwards. Close is idempotent, and after it
// LiveProcs reports zero.
func (k *Kernel) Close() {
	for n := len(k.unfinished); n > 0; n = len(k.unfinished) {
		p := k.unfinished[n-1]
		p.stop()
		if !p.finished {
			// Never started: stop discarded the coroutine without
			// running its epilogue.
			p.finish()
		}
	}
}

// LiveProcs reports the number of spawned processes that have not yet
// finished or been killed.
func (k *Kernel) LiveProcs() int { return k.liveProcs }

// QueueLen reports the number of pending events: lane, heap and pending
// polling checks together.
func (k *Kernel) QueueLen() int { return k.queue.Len() + k.laneLen + k.checks.len }

// Events reports the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// Resumes reports the number of times a process coroutine was resumed.
func (k *Kernel) Resumes() uint64 { return k.resumes }
