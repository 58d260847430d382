package harness

import (
	"runtime"
	"testing"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// leakSpecs returns one small sweep per run outcome: completed, horizon,
// diverged (virtual cap hit), determinant loss, false suspicion and a
// wall-clock watchdog stop (deadlock-timeout), each with the outcome it
// must record.
func leakSpecs() []struct {
	spec *SweepSpec
	opts Options
	want cluster.Outcome
} {
	vc := []Stack{{Key: "vc", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true}}
	service := Workload{Key: "service.3", Make: func() *workload.Instance {
		return workload.BuildService(workload.ServiceConfig{
			NP: 3, RatePerRank: 100, Window: 150 * sim.Millisecond,
			ServiceTime: 500 * sim.Microsecond, Seed: 1,
		})
	}}
	loss := lossSpec()
	loss.Stacks = loss.Stacks[:1] // the no-EL stack loses determinants
	return []struct {
		spec *SweepSpec
		opts Options
		want cluster.Outcome
	}{
		{&SweepSpec{
			Name:      "completed",
			Workloads: []Workload{{Key: "cg.A.4", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 4}}},
			Stacks:    vc,
		}, Options{}, cluster.OutcomeCompleted},
		{&SweepSpec{
			Name:      "horizon",
			Workloads: []Workload{service},
			Stacks:    vc,
			Variants:  []Variant{{Key: "cut", Horizon: 50 * sim.Millisecond}},
		}, Options{}, cluster.OutcomeHorizon},
		{&SweepSpec{
			Name:       "diverged",
			Workloads:  []Workload{{Key: "cg.A.4", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 4}}},
			Stacks:     vc,
			MaxVirtual: sim.Millisecond,
		}, Options{}, cluster.OutcomeDiverged},
		{loss, Options{}, cluster.OutcomeDeterminantLoss},
		{partitionSpec(), Options{}, cluster.OutcomeFalseSuspicion},
		{&SweepSpec{
			Name:      "deadlock-timeout",
			Workloads: []Workload{{Key: "pp-long", PingPongBytes: 1, PingPongReps: 2_000_000}},
			Stacks:    vc,
		}, Options{CellTimeout: 20 * time.Millisecond}, cluster.OutcomeDeadlockTimeout},
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunsReleaseEverything is a goleak-style regression test: after
// repeated runs of every outcome kind, the goroutine count returns to its
// baseline and the live heap does not grow — no simulated process, and so
// no cluster it references, outlives its run.
func TestRunsReleaseEverything(t *testing.T) {
	const rounds = 3
	specs := leakSpecs()
	// Warm up once so lazily built package state (pools, caches) is not
	// mistaken for a leak.
	for _, s := range specs {
		Run(s.spec, s.opts)
	}
	goroutines0 := runtime.NumGoroutine()
	heap0 := liveHeap()

	for round := 0; round < rounds; round++ {
		for _, s := range specs {
			res := Run(s.spec, s.opts)
			for i := range res.Cells {
				if got := res.Cells[i].Outcome; got != s.want {
					t.Fatalf("%s: cell %s outcome = %q, want %q", s.spec.Name, res.Cells[i].ID, got, s.want)
				}
			}
		}
	}

	// A timed-out cell's runner goroutine exits just after handing over
	// its result; give stragglers a moment before counting.
	goroutines := runtime.NumGoroutine()
	for wait := 0; goroutines > goroutines0 && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	if goroutines > goroutines0 {
		t.Errorf("goroutines: %d after %d rounds of runs, want the baseline %d", goroutines, rounds, goroutines0)
	}
	const heapSlack = 1 << 20
	if heap := liveHeap(); heap > heap0+heapSlack {
		t.Errorf("live heap grew from %d to %d bytes over %d rounds of runs (slack %d)", heap0, heap, rounds, heapSlack)
	}
}
