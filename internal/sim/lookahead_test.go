package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The tests in this file hold the polling sleep's lookahead to its
// specification: a world of polling processes, senders, sleepers, kills
// and run cuts must produce the same (time, action) trace when its polling
// sleeps run as SleepPoll and as refSleepPoll's loop of plain Sleep steps,
// with every resume but the empty ones, and no more kernel events.

const pollStep = 500 * Microsecond

// world is one run of a scenario: its kernel, the trace the scenario
// logs, and which polling sleep it uses.
type world struct {
	k     *Kernel
	ref   bool
	trace []string
	// empties counts the Sleep loop's empty wakeups (refSleepPoll).
	empties uint64
	nextVal int
}

func (w *world) log(who, what string) {
	w.trace = append(w.trace, fmt.Sprintf("%v %s %s", w.k.Now(), who, what))
}

func (w *world) sleep(p *Proc, d Time, mb *Mailbox[int]) Time {
	if w.ref {
		return refSleepPoll(p, d, pollStep, mb, &w.empties)
	}
	return p.SleepPoll(d, pollStep, mb)
}

// compute polls mb for d, logging every resume and draining mb at each
// one; onDrain sees every drained value.
func (w *world) compute(p *Proc, d Time, mb *Mailbox[int], onDrain func(v int)) {
	for d > 0 {
		d = w.sleep(p, d, mb)
		w.log(p.Name(), fmt.Sprintf("resume left=%v", d))
		for v, ok := mb.TryGet(); ok; v, ok = mb.TryGet() {
			w.log(p.Name(), fmt.Sprintf("drain %d", v))
			if onDrain != nil {
				onDrain(v)
			}
		}
	}
}

// put logs and delivers a fresh value to mb now.
func (w *world) put(who string, to int, mb *Mailbox[int]) {
	w.nextVal++
	w.log(who, fmt.Sprintf("put %d to %d", w.nextVal, to))
	mb.Put(w.nextVal)
}

// diffRun runs scenario on a fresh kernel, once with SleepPoll and once
// with the Sleep loop, and fails unless the traces are identical, the
// resumes agree and SleepPoll ran no more events. It returns the
// SleepPoll run's kernel.
func diffRun(t *testing.T, seed int64, scenario func(w *world)) *Kernel {
	t.Helper()
	run := func(ref bool) *world {
		w := &world{k: NewKernel(seed), ref: ref}
		scenario(w)
		w.k.Close()
		return w
	}
	got, ref := run(false), run(true)
	if !slices.Equal(got.trace, ref.trace) {
		i := 0
		for i < len(got.trace) && i < len(ref.trace) && got.trace[i] == ref.trace[i] {
			i++
		}
		t.Fatalf("seed %d: trace differs from the Sleep loop's at entry %d:\npoll %q\nref  %q",
			seed, i, got.trace[i:min(len(got.trace), i+6)], ref.trace[i:min(len(ref.trace), i+6)])
	}
	if want := ref.k.Resumes() - ref.empties; got.k.Resumes() != want {
		t.Fatalf("seed %d: %d resumes, want %d (the Sleep loop's %d less %d empty wakeups)",
			seed, got.k.Resumes(), want, ref.k.Resumes(), ref.empties)
	}
	if got.k.Events() > ref.k.Events() {
		t.Fatalf("seed %d: %d kernel events, more than the Sleep loop's %d", seed, got.k.Events(), ref.k.Events())
	}
	if got.k.LiveProcs() != 0 || ref.k.LiveProcs() != 0 {
		t.Fatalf("seed %d: live procs %d and %d after Close", seed, got.k.LiveProcs(), ref.k.LiveProcs())
	}
	return got.k
}

// randomWorld builds a seeded mix: polling processes started in
// same-instant groups and in other phases, which compute, send to each
// other directly or over a delayed delivery, and answer some drained
// values mid-computation; plain sleepers that put work; kills on and
// between step boundaries, some followed by a replacement polling the
// same mailbox; and a run cut by Stop or by a RunUntil deadline after
// which more work arrives from outside the loop. Durations are mostly
// multiples of 50 µs so that boundaries, deliveries and deadlines
// coincide often.
func randomWorld(seed int64) func(w *world) {
	return func(w *world) {
		k := w.k
		plan := rand.New(rand.NewSource(seed))
		dur := func(r *rand.Rand, limit Time) Time {
			if r.Intn(4) == 0 {
				return Time(r.Int63n(int64(limit))) + 1
			}
			return Time(r.Int63n(int64(limit/(50*Microsecond)))+1) * 50 * Microsecond
		}
		n := 2 + plan.Intn(5)
		mbs := make([]*Mailbox[int], n)
		for i := range mbs {
			mbs[i] = NewMailbox[int](k)
		}
		send := func(r *rand.Rand, who string) {
			j := r.Intn(n)
			if r.Intn(2) == 0 {
				w.put(who, j, mbs[j])
				return
			}
			lat := dur(r, 2*Millisecond)
			w.log(who, fmt.Sprintf("send to %d in %v", j, lat))
			k.After(lat, func() { w.put("net", j, mbs[j]) })
		}
		poller := func(i int, name string, r *rand.Rand) func(p *Proc) {
			return func(p *Proc) {
				defer w.log(name, "unwound")
				reply := func(v int) {
					if v%3 == 0 {
						send(r, name)
					}
				}
				for round := 2 + r.Intn(6); round > 0; round-- {
					switch a := r.Intn(10); {
					case a < 6:
						d := dur(r, 20*Millisecond)
						if r.Intn(3) == 0 {
							// End on a shared millisecond mark.
							d = (p.Now()/Millisecond+1+Time(r.Intn(8)))*Millisecond - p.Now()
						}
						w.compute(p, d, mbs[i], reply)
						if r.Intn(2) == 0 {
							send(r, name)
						}
					case a < 8:
						send(r, name)
					default:
						p.Sleep(dur(r, 3*Millisecond))
						w.log(name, "slept")
					}
				}
				w.log(name, "done")
			}
		}
		procs := make([]*Proc, n)
		var start Time
		for i := range n {
			if i == 0 || plan.Intn(2) == 0 {
				start = dur(plan, 3*Millisecond)
			}
			name := fmt.Sprintf("p%d", i)
			r := rand.New(rand.NewSource(seed*100 + int64(i)))
			k.At(start, func() { procs[i] = k.Spawn(name, poller(i, name, r)) })
		}
		for s := range plan.Intn(3) {
			name := fmt.Sprintf("s%d", s)
			r := rand.New(rand.NewSource(seed*100 + 50 + int64(s)))
			k.Spawn(name, func(p *Proc) {
				for range 1 + r.Intn(5) {
					p.Sleep(dur(r, 6*Millisecond))
					send(r, name)
				}
			})
		}
		for range plan.Intn(3) {
			i := plan.Intn(n)
			at := dur(plan, 30*Millisecond)
			if plan.Intn(2) == 0 {
				at = at / pollStep * pollStep
			}
			respawn := plan.Intn(2) == 0
			k.At(at, func() {
				if procs[i] == nil || procs[i].Finished() {
					return
				}
				w.log("kill", procs[i].Name())
				procs[i].Kill()
				if respawn {
					name := procs[i].Name() + "'"
					procs[i] = k.Spawn(name, poller(i, name, rand.New(rand.NewSource(seed*100+int64(i)+7))))
				}
			})
		}
		switch plan.Intn(3) {
		case 0:
			k.Run()
		case 1:
			k.At(dur(plan, 40*Millisecond), k.Stop)
			k.Run()
		default:
			k.RunUntil(dur(plan, 30*Millisecond))
			i := plan.Intn(n)
			w.put("outside", i, mbs[i])
			j, lat := plan.Intn(n), dur(plan, 2*Millisecond)
			k.After(lat, func() { w.put("outside", j, mbs[j]) })
			k.Run()
		}
	}
}

func TestLookaheadMatchesSleepLoop(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= seeds; seed++ {
		diffRun(t, seed, randomWorld(seed))
	}
}

// TestLookaheadRegressions pins the cases each lookahead limit exists
// for, and one where the lookahead must skip almost everything.
func TestLookaheadRegressions(t *testing.T) {
	cases := []struct {
		name     string
		scenario func(w *world)
		// maxEvents, if set, bounds the SleepPoll run's kernel events.
		maxEvents uint64
	}{
		{
			// b finishes a short computation and sends to a, which is
			// deep in a long one in another phase: a must not sleep
			// through the message. b's last boundary bounds a's horizon.
			name: "neighbour sends right after its computation ends",
			scenario: func(w *world) {
				a := NewMailbox[int](w.k)
				b := NewMailbox[int](w.k)
				w.k.Spawn("a", func(p *Proc) { w.compute(p, 20*Millisecond, a, nil) })
				w.k.At(120*Microsecond, func() {
					w.k.Spawn("b", func(p *Proc) {
						w.compute(p, 3*Millisecond+70*Microsecond, b, nil)
						w.put("b", 0, a)
					})
				})
				w.k.Run()
			},
		},
		{
			// Work is already waiting when the sleep starts: the first
			// check, one step ahead, resumes the process.
			name: "backlog non-empty when the sleep starts",
			scenario: func(w *world) {
				a := NewMailbox[int](w.k)
				w.k.Spawn("a", func(p *Proc) {
					w.put("a", 0, a)
					w.compute(p, 10*Millisecond, a, nil)
				})
				w.k.Spawn("b", func(p *Proc) { w.compute(p, 10*Millisecond, NewMailbox[int](w.k), nil) })
				w.k.Run()
			},
		},
		{
			// Three processes on one grid with different deadlines, so
			// their horizons differ, then a delivery to all of them:
			// they must resume in the order they share at every
			// boundary, and at the deadline they share.
			name: "same-phase processes keep their order",
			scenario: func(w *world) {
				mbs := []*Mailbox[int]{NewMailbox[int](w.k), NewMailbox[int](w.k), NewMailbox[int](w.k)}
				for i, d := range []Time{30 * Millisecond, 12 * Millisecond, 30 * Millisecond} {
					name := fmt.Sprintf("r%d", i)
					w.k.Spawn(name, func(p *Proc) {
						w.compute(p, d, mbs[i], nil)
						w.compute(p, 18*Millisecond, mbs[i], nil)
						w.put(name, (i+1)%3, mbs[(i+1)%3])
					})
				}
				w.k.At(21*Millisecond+10*Microsecond, func() {
					for i := 2; i >= 0; i-- {
						w.put("net", i, mbs[i])
					}
				})
				w.k.Run()
			},
		},
		{
			// Two pairs of processes on two grids, each pair started at
			// one instant, compute 50 ms with nothing else pending:
			// their checks must not bound each other's horizons, so
			// each sleep costs O(1) events.
			name: "symmetric groups jump together",
			scenario: func(w *world) {
				for i := range 4 {
					w.k.At(Time(i/2)*250*Microsecond, func() {
						w.k.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) { w.compute(p, 50*Millisecond, NewMailbox[int](w.k), nil) })
					})
				}
				w.k.Run()
			},
			maxEvents: 40,
		},
		{
			// An idle polling sleep with nothing else pending.
			name: "idle sleep",
			scenario: func(w *world) {
				w.k.Spawn("a", func(p *Proc) { w.compute(p, Second, NewMailbox[int](w.k), nil) })
				w.k.Run()
			},
			maxEvents: 6,
		},
		{
			// A RunUntil deadline inside a jumped span, then work put
			// from outside the loop just after it.
			name: "deadline inside a jumped span",
			scenario: func(w *world) {
				a := NewMailbox[int](w.k)
				w.k.Spawn("a", func(p *Proc) { w.compute(p, 40*Millisecond, a, nil) })
				w.k.RunUntil(17*Millisecond + 300*Microsecond)
				w.k.At(17*Millisecond+400*Microsecond, func() { w.put("outside", 0, a) })
				w.k.Run()
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := diffRun(t, 1, c.scenario)
			t.Logf("%d kernel events", k.Events())
			if c.maxEvents > 0 && k.Events() > c.maxEvents {
				t.Fatalf("%d kernel events, want at most %d", k.Events(), c.maxEvents)
			}
		})
	}
}

// TestQueueLenCountsPendingChecks: a kernel whose only pending work is a
// polling process's check reports it, so a sampler that stops on an
// empty queue keeps sampling until the sleep ends.
func TestQueueLenCountsPendingChecks(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	k.Spawn("a", func(p *Proc) { p.SleepPoll(10*Millisecond, pollStep, mb) })
	k.RunUntil(2500 * Microsecond)
	if n := k.QueueLen(); n != 1 {
		t.Fatalf("QueueLen = %d mid-sleep, want 1 (the pending check)", n)
	}
	var samples []Time
	var tick func()
	tick = func() {
		if k.QueueLen() == 0 {
			return
		}
		samples = append(samples, k.Now())
		k.After(Millisecond, tick)
	}
	k.At(k.Now(), tick)
	k.Run()
	if len(samples) != 8 || samples[7] != 9500*Microsecond {
		t.Fatalf("sampled at %v, want every millisecond from 2.5 to 9.5 ms", samples)
	}
}

func TestSleepPollStepMustMatch(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("a", func(p *Proc) { p.SleepPoll(5*Millisecond, pollStep, NewMailbox[int](k)) })
	k.Spawn("b", func(p *Proc) { p.SleepPoll(5*Millisecond, 2*pollStep, NewMailbox[int](k)) })
	defer func() {
		if recover() == nil {
			t.Fatal("a second poll step did not panic")
		}
	}()
	k.Run()
}
