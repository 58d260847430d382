package sim

import "fmt"

// Mailbox is an unbounded FIFO queue connecting simulated activities.
// Put never blocks; Get blocks the calling process until an item is
// available. Items are delivered in Put order and waiters are served in
// arrival order, so mailbox behaviour is deterministic.
//
// Storage is a ring buffer and parked-waiter records are recycled through a
// free list, so steady-state Put/Get traffic — the per-message path of every
// simulated daemon — allocates nothing once the ring has grown to the
// mailbox's high-water mark.
type Mailbox[T any] struct {
	k     *Kernel
	ring  []T // ring storage; empty means an un-grown mailbox
	head  int // index of the oldest item
	count int

	waiters    []*waiter
	waiterFree []*waiter

	// poller is the process polling the mailbox in Proc.SleepPoll, told
	// of every Put so that the kernel's lookahead sees the work.
	poller *Proc
}

type waiter struct {
	p       *Proc
	dropped bool
	// drop is the kill hook (set w.dropped), built once per waiter record
	// so recycled waiters park without allocating.
	drop func()
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k}
}

// grow doubles the ring (minimum 8), unwrapping items into FIFO order.
//
//mpichv:amortized ring doubling: geometric growth costs nothing once the ring reaches the mailbox's high-water mark
func (m *Mailbox[T]) grow() {
	next := make([]T, max(8, 2*len(m.ring)))
	for i := 0; i < m.count; i++ {
		next[i] = m.ring[(m.head+i)%len(m.ring)]
	}
	m.ring = next
	m.head = 0
}

// Put appends v and wakes the oldest live waiter, if any. It may be called
// from event context or from any process.
//
//mpichv:noalloc
func (m *Mailbox[T]) Put(v T) {
	if m.count == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.count)%len(m.ring)] = v
	m.count++
	if m.poller != nil {
		m.poller.backlogged()
	}
	m.wakeOne()
}

// watch records p as the process polling m (nil: none). Only one process
// polls a mailbox at a time.
func (m *Mailbox[T]) watch(p *Proc) {
	if p != nil && m.poller != nil && m.poller != p {
		panic(fmt.Sprintf("sim: %q polls a mailbox %q already polls", p.name, m.poller.name))
	}
	m.poller = p
}

//mpichv:noalloc
func (m *Mailbox[T]) wakeOne() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters = m.waiters[:len(m.waiters)-1]
		if w.dropped {
			// Killed while parked: its Get never resumes normally, so the
			// record is recycled here.
			m.recycle(w)
			continue
		}
		w.dropped = true
		w.p.unpark()
		return
	}
}

// newWaiter returns a parked-waiter record for p, recycled when possible.
//
//mpichv:amortized free-list refill: the record and its drop hook are built once per slot and recycled forever after
func (m *Mailbox[T]) newWaiter(p *Proc) *waiter {
	if n := len(m.waiterFree); n > 0 {
		w := m.waiterFree[n-1]
		m.waiterFree = m.waiterFree[:n-1]
		w.p, w.dropped = p, false
		return w
	}
	w := &waiter{p: p}
	w.drop = func() { w.dropped = true }
	return w
}

//mpichv:noalloc
func (m *Mailbox[T]) recycle(w *waiter) {
	w.p = nil
	m.waiterFree = append(m.waiterFree, w)
}

// pop removes and returns the oldest item (count must be positive).
//
//mpichv:noalloc
func (m *Mailbox[T]) pop() T {
	v := m.ring[m.head]
	var zero T
	m.ring[m.head] = zero // release the reference for GC
	m.head = (m.head + 1) % len(m.ring)
	m.count--
	return v
}

// Get removes and returns the oldest item, blocking the calling process
// until one is available. If the process is killed while waiting, Get
// unwinds with ErrKilled.
//
//mpichv:noalloc
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.count == 0 {
		w := m.newWaiter(p)
		m.waiters = append(m.waiters, w)
		// If p is killed while parked here, drop its waiter slot so a later
		// Put does not waste a wakeup on a corpse.
		p.onKill = w.drop
		p.park()
		p.onKill = nil
		// A normal wakeup means wakeOne already removed w from the queue.
		m.recycle(w)
	}
	v := m.pop()
	// If items remain and other waiters exist (possible when several Puts
	// landed before we ran), pass the wakeup along.
	if m.count > 0 {
		m.wakeOne()
	}
	return v
}

// TryGet removes and returns the oldest item without blocking. The boolean
// reports whether an item was available.
//
//mpichv:noalloc
func (m *Mailbox[T]) TryGet() (T, bool) {
	if m.count == 0 {
		var zero T
		return zero, false
	}
	return m.pop(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.count }

// Range calls fn on every queued item in FIFO order without consuming any,
// stopping early when fn returns false. It is a pure read: recovery
// diagnostics use it to inspect undelivered traffic.
func (m *Mailbox[T]) Range(fn func(T) bool) {
	for i := 0; i < m.count; i++ {
		if !fn(m.ring[(m.head+i)%len(m.ring)]) {
			return
		}
	}
}
