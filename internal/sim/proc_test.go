package sim

import (
	"runtime"
	"testing"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	k.Run()
	if woke != 100*Microsecond {
		t.Fatalf("woke at %v, want 100µs", woke)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after completion, want 0", k.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
		p.Sleep(20) // wakes at 40
		order = append(order, "b40")
	})
	k.Run()
	want := []string{"a10", "b20", "a30", "b40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKillParkedProc(t *testing.T) {
	k := NewKernel(1)
	reachedEnd := false
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) {
		p.Sleep(Second)
		reachedEnd = true
	})
	k.At(100, func() { victim.Kill() })
	k.Run()
	if reachedEnd {
		t.Fatal("killed process ran past its blocking point")
	}
	if !victim.Killed() {
		t.Fatal("Killed() = false")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestKillBeforeStart(t *testing.T) {
	k := NewKernel(1)
	ran := false
	var victim *Proc
	// Spawn schedules the start event; killing from an event scheduled at the
	// same instant but earlier in sequence order must prevent the body from
	// ever running. We schedule the spawn from inside an event so the kill
	// event precedes the start event.
	k.At(0, func() {
		victim = k.Spawn("victim", func(p *Proc) { ran = true })
		victim.Kill()
	})
	k.Run()
	if ran {
		t.Fatal("killed-before-start process body ran")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
	k.At(10, func() {
		victim.Kill()
		victim.Kill()
	})
	k.Run()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestYieldLetsPeersRun(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a starts first (spawned first), yields; b then runs to completion; a
	// resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	func() {
		defer func() {
			const want = `sim: process "bad" panicked: boom`
			if r := recover(); r != want {
				t.Errorf("Run panicked with %v, want %q", r, want)
			}
		}()
		k.Run()
	}()
	// The panicking run still releases its other processes.
	k.Close()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after Close, want 0", k.LiveProcs())
	}
}

// TestCloseReleasesEveryProcess: Close unwinds a process parked in Sleep,
// one parked in a mailbox Get and one killed but not yet unwound (running
// their deferred calls), discards one killed before it ever started, and
// leaves a finished one alone. No coroutine outlives it.
func TestCloseReleasesEveryProcess(t *testing.T) {
	goroutines0 := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	unwound := map[string]bool{}
	body := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound[p.Name()] = true }()
			block(p)
			t.Errorf("%s returned from its blocking call", p.Name())
		}
	}
	sleeper := k.Spawn("sleeper", body(func(p *Proc) { p.Sleep(Second) }))
	getter := k.Spawn("getter", body(func(p *Proc) { mb.Get(p) }))
	killed := k.Spawn("killed", body(func(p *Proc) { p.Sleep(Second) }))
	finished := k.Spawn("finished", func(p *Proc) { p.Sleep(10) })
	var unstarted *Proc
	k.At(50, func() {
		unstarted = k.Spawn("unstarted", func(p *Proc) { t.Error("killed-before-start body ran") })
		unstarted.Kill()
		// Kill schedules the victim's unwind; stopping now leaves it parked.
		killed.Kill()
		k.Stop()
	})
	k.Run()
	if !finished.Finished() || killed.Finished() || unstarted.Finished() {
		t.Fatalf("before Close: finished=%v killed=%v unstarted=%v",
			finished.Finished(), killed.Finished(), unstarted.Finished())
	}
	if k.LiveProcs() != 2 {
		t.Fatalf("live procs = %d before Close, want 2 (sleeper, getter)", k.LiveProcs())
	}

	k.Close()
	k.Close() // idempotent
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after Close, want 0", k.LiveProcs())
	}
	for _, p := range []*Proc{sleeper, getter, killed, unstarted, finished} {
		if !p.Finished() {
			t.Errorf("%s not finished after Close", p.Name())
		}
	}
	for _, name := range []string{"sleeper", "getter", "killed"} {
		if !unwound[name] {
			t.Errorf("%s did not unwind through its deferred calls", name)
		}
	}
	if g := runtime.NumGoroutine(); g > goroutines0 {
		t.Errorf("goroutines = %d after Close, want at most %d", g, goroutines0)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel(1)
	panicked := false
	k.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				panic(ErrKilled) // unwind cleanly through the wrapper
			}
		}()
		p.Sleep(-1)
	})
	k.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}
