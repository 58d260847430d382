package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSleepPoll is the loop SleepPoll replaces: plain Sleep steps, with the
// backlog checked by the resumed process after each one. It counts in
// *empties the wakeups that find nothing with time left: the resumes
// SleepPoll does not make.
func refSleepPoll(p *Proc, d, every Time, ready Backlog, empties *uint64) Time {
	for d > 0 {
		step := min(d, every)
		p.Sleep(step)
		d -= step
		if ready.Len() > 0 {
			return d
		}
		if d > 0 {
			*empties++
		}
	}
	return 0
}

// pollScenario runs one process that computes for 5 ms in 500 µs polling
// steps, draining a mailbox at every early return, while setup schedules
// deliveries and faults around it. It returns the trace of (virtual time,
// action) entries in execution order and the number of kernel events run.
func pollScenario(t *testing.T, reference bool, setup func(k *Kernel, mb *Mailbox[int], p *Proc, log func(string))) ([]string, uint64, *Kernel) {
	t.Helper()
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	var trace []string
	log := func(s string) { trace = append(trace, fmt.Sprintf("%v %s", k.Now(), s)) }
	var empties uint64
	sleep := (*Proc).SleepPoll
	if reference {
		sleep = func(p *Proc, d, every Time, ready Backlog) Time { return refSleepPoll(p, d, every, ready, &empties) }
	}
	p := k.Spawn("computer", func(p *Proc) {
		defer log("unwound")
		for d := 5 * Millisecond; d > 0; {
			d = sleep(p, d, 500*Microsecond, mb)
			log(fmt.Sprintf("resume left=%v", d))
			for v, ok := mb.TryGet(); ok; v, ok = mb.TryGet() {
				log(fmt.Sprintf("drain %d", v))
			}
		}
		log("done")
	})
	setup(k, mb, p, log)
	k.Run()
	return trace, k.Events(), k
}

func TestSleepPollMatchesSleepLoop(t *testing.T) {
	put := func(mb *Mailbox[int], log func(string), v int) {
		log(fmt.Sprintf("put %d", v))
		mb.Put(v)
	}
	cases := []struct {
		name  string
		setup func(k *Kernel, mb *Mailbox[int], p *Proc, log func(string))
		want  []string // the poll trace, pinned
	}{
		{
			name: "put inside a step",
			setup: func(k *Kernel, mb *Mailbox[int], _ *Proc, log func(string)) {
				k.At(1200*Microsecond, func() { put(mb, log, 1) })
			},
			want: []string{"1.2ms put 1", "1.5ms resume left=3.5ms", "1.5ms drain 1", "5ms resume left=0ns", "5ms done", "5ms unwound"},
		},
		{
			name: "put at a boundary scheduled before the step",
			setup: func(k *Kernel, mb *Mailbox[int], _ *Proc, log func(string)) {
				k.At(1500*Microsecond, func() { put(mb, log, 1) })
			},
			want: []string{"1.5ms put 1", "1.5ms resume left=3.5ms", "1.5ms drain 1", "5ms resume left=0ns", "5ms done", "5ms unwound"},
		},
		{
			// At 1.5 ms the step timer fires first, then the put event
			// (scheduled during the step, after the timer), then the
			// check the timer queued: the check must see the put. A put
			// the put event itself defers to the same instant lands behind
			// the check and waits for the next boundary.
			name: "put queued between timer and check",
			setup: func(k *Kernel, mb *Mailbox[int], _ *Proc, log func(string)) {
				k.At(1200*Microsecond, func() {
					k.At(1500*Microsecond, func() {
						put(mb, log, 1)
						k.At(k.Now(), func() { put(mb, log, 2) })
					})
				})
			},
			want: []string{"1.5ms put 1", "1.5ms resume left=3.5ms", "1.5ms drain 1", "1.5ms put 2",
				"2ms resume left=3ms", "2ms drain 2", "5ms resume left=0ns", "5ms done", "5ms unwound"},
		},
		{
			name: "kill while polling",
			setup: func(k *Kernel, mb *Mailbox[int], p *Proc, log func(string)) {
				k.At(2300*Microsecond, func() { log("kill"); p.Kill() })
				k.At(2400*Microsecond, func() { put(mb, log, 1) })
			},
			want: []string{"2.3ms kill", "2.3ms unwound", "2.4ms put 1"},
		},
		{
			name:  "empty backlog",
			setup: func(*Kernel, *Mailbox[int], *Proc, func(string)) {},
			want:  []string{"5ms resume left=0ns", "5ms done", "5ms unwound"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, events, k := pollScenario(t, false, c.setup)
			ref, refEvents, _ := pollScenario(t, true, c.setup)
			if !slices.Equal(got, ref) {
				t.Fatalf("poll trace differs from the Sleep loop:\npoll %q\nref  %q", got, ref)
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("trace = %q, want %q", got, c.want)
			}
			if events > refEvents {
				t.Fatalf("poll ran %d kernel events, more than the Sleep loop's %d", events, refEvents)
			}
			if k.LiveProcs() != 0 {
				t.Fatalf("live procs = %d, want 0", k.LiveProcs())
			}
		})
	}
}

// TestSleepPollSkipsEmptyResumes: a poll that finds nothing keeps the
// process parked — a 5 ms poll in 500 µs steps resumes it once.
func TestSleepPollSkipsEmptyResumes(t *testing.T) {
	_, _, k := pollScenario(t, false, func(*Kernel, *Mailbox[int], *Proc, func(string)) {})
	_, _, ref := pollScenario(t, true, func(*Kernel, *Mailbox[int], *Proc, func(string)) {})
	// Start plus one resume for the poll; start plus ten for the loop.
	if k.Resumes() != 2 || ref.Resumes() != 11 {
		t.Fatalf("resumes: poll %d, Sleep loop %d; want 2 and 11", k.Resumes(), ref.Resumes())
	}
}

// TestClosePollingProcess: Close releases a process parked in SleepPoll.
func TestClosePollingProcess(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	unwound := false
	k.Spawn("computer", func(p *Proc) {
		defer func() { unwound = true }()
		p.SleepPoll(5*Millisecond, 500*Microsecond, mb)
		t.Error("SleepPoll returned")
	})
	k.At(2300*Microsecond, k.Stop)
	k.Run()
	k.Close()
	if !unwound || k.LiveProcs() != 0 {
		t.Fatalf("after Close: unwound=%v live procs=%d, want true and 0", unwound, k.LiveProcs())
	}
}

// TestLaneMatchesHeapOrder drives a seeded random mix of same-instant and
// future scheduling, from events and from processes, with bursts that
// overflow the same-instant lane into the heap. Every labelled event must
// run in (at, seq) order, and QueueLen must count every pending event at
// every step.
func TestLaneMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := NewKernel(seed)
		rng := rand.New(rand.NewSource(seed))
		type key struct {
			at  Time
			seq uint64
		}
		var scheduled, ran []key
		budget := 3000
		var schedule func()
		schedule = func() {
			if budget <= 0 {
				return
			}
			budget--
			at := k.Now()
			if rng.Intn(3) == 0 {
				at += Time(rng.Intn(4))
			}
			var id key
			k.At(at, func() {
				ran = append(ran, id)
				if got, want := k.QueueLen(), int(k.seq-k.events); got != want {
					t.Fatalf("seed %d: QueueLen = %d, want %d pending", seed, got, want)
				}
				n := rng.Intn(3)
				if rng.Intn(50) == 0 {
					n = laneCap + rng.Intn(laneCap)
				}
				for range n {
					schedule()
				}
			})
			id = key{at, k.seq}
			scheduled = append(scheduled, id)
		}
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(p *Proc) {
				for budget > 0 {
					schedule()
					if rng.Intn(2) == 0 {
						p.Yield()
					} else {
						p.Sleep(Time(rng.Intn(3) + 1))
					}
				}
			})
		}
		schedule()
		k.Run()
		if k.QueueLen() != 0 {
			t.Fatalf("seed %d: QueueLen = %d after the run", seed, k.QueueLen())
		}
		slices.SortFunc(scheduled, func(a, b key) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return int(a.seq) - int(b.seq)
		})
		if !slices.Equal(ran, scheduled) {
			t.Fatalf("seed %d: %d events ran out of (at, seq) order", seed, len(ran))
		}
	}
}
