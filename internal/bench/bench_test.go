package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func results(label string, rs ...Result) *Results {
	return &Results{Label: label, SHA: "deadbeef", Date: "2026-01-01T00:00:00Z", Results: rs}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("test"))
	in := results("test",
		Result{Name: "a", NsPerOp: 123.5, AllocsPerOp: 2, BytesPerOp: 64, Iterations: 1000,
			Metrics: map[string]float64{"events/op": 51833, "resumes/op": 23036}},
		Result{Name: "b", NsPerOp: 9.25, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 5},
	)
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Label != "test" || out.SHA != "deadbeef" || len(out.Results) != 2 {
		t.Fatalf("round trip mangled envelope: %+v", out)
	}
	if got := out.Get("a"); got == nil || !reflect.DeepEqual(*got, in.Results[0]) {
		t.Fatalf("Get(a) = %+v, want %+v", got, in.Results[0])
	}
	if out.Get("missing") != nil {
		t.Error("Get(missing) should be nil")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := results("base",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "fast", NsPerOp: 1000, AllocsPerOp: 4},
		Result{Name: "steady", NsPerOp: 1000, AllocsPerOp: 4},
	)
	cur := results("cur",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "fast", NsPerOp: 1600, AllocsPerOp: 4},   // +60% ns/op
		Result{Name: "steady", NsPerOp: 1100, AllocsPerOp: 4}, // +10%: within gate
	)
	regs := Compare(cur, base, 25)
	if len(regs) != 1 || regs[0].Name != "fast" || regs[0].Metric != "ns/op" {
		t.Fatalf("Compare = %v, want one ns/op regression on fast", regs)
	}
}

func TestCompareNormalizesByCalibration(t *testing.T) {
	base := results("base",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "x", NsPerOp: 1000, AllocsPerOp: 0},
	)
	// The current machine is 2x slower across the board: calibration and
	// benchmark double together — not a regression.
	cur := results("cur",
		Result{Name: CalibName, NsPerOp: 200},
		Result{Name: "x", NsPerOp: 2000, AllocsPerOp: 0},
	)
	if regs := Compare(cur, base, 25); len(regs) != 0 {
		t.Fatalf("hardware-speed difference flagged as regression: %v", regs)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := results("base",
		Result{Name: "x", NsPerOp: 1000, AllocsPerOp: 2},
		Result{Name: "warm", NsPerOp: 1000, AllocsPerOp: 0},
	)
	cur := results("cur",
		Result{Name: "x", NsPerOp: 1000, AllocsPerOp: 12},   // +10 allocs: flagged
		Result{Name: "warm", NsPerOp: 1000, AllocsPerOp: 1}, // within slack
	)
	regs := Compare(cur, base, 25)
	if len(regs) != 1 || regs[0].Name != "x" || regs[0].Metric != "allocs/op" {
		t.Fatalf("Compare = %v, want one allocs/op regression on x", regs)
	}
}

func TestCompareShortMismatchGatesAllocsOnly(t *testing.T) {
	base := results("base",
		Result{Name: "x", NsPerOp: 1000, AllocsPerOp: 0},
	)
	cur := results("cur",
		Result{Name: "x", NsPerOp: 9000, AllocsPerOp: 40}, // ns noise + real alloc regression
	)
	cur.Short = true // -short CI run vs full-length baseline
	regs := Compare(cur, base, 25)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("Compare across measuring modes = %v, want only the allocs/op regression", regs)
	}
}

func TestEqualAllocsZeroSlack(t *testing.T) {
	base := results("base",
		Result{Name: "steady", NsPerOp: 1000, AllocsPerOp: 4},
		Result{Name: "crept", NsPerOp: 1000, AllocsPerOp: 4},
		Result{Name: "improved", NsPerOp: 1000, AllocsPerOp: 4},
	)
	cur := results("cur",
		Result{Name: "steady", NsPerOp: 1000, AllocsPerOp: 4},
		Result{Name: "crept", NsPerOp: 1000, AllocsPerOp: 5}, // +1: inside Compare's slack, outside this gate
		Result{Name: "improved", NsPerOp: 1000, AllocsPerOp: 3},
	)
	// Compare's slack would wave "crept" through...
	if regs := Compare(cur, base, 25); len(regs) != 0 {
		t.Fatalf("Compare flagged within-slack changes: %v", regs)
	}
	// ...EqualAllocs must not.
	regs := EqualAllocs(cur, base, []string{"steady", "crept", "improved"})
	if len(regs) != 1 || regs[0].Name != "crept" || regs[0].Metric != "allocs/op" {
		t.Fatalf("EqualAllocs = %v, want exactly the +1 alloc on crept", regs)
	}
}

func TestEqualAllocsMissingBenchmarkIsViolation(t *testing.T) {
	base := results("base", Result{Name: "x", AllocsPerOp: 4})
	cur := results("cur", Result{Name: "x", AllocsPerOp: 4})
	regs := EqualAllocs(cur, base, []string{"x", "gone"})
	if len(regs) != 1 || regs[0].Name != "gone" || regs[0].Metric != "missing" {
		t.Fatalf("EqualAllocs = %v, want one missing violation for gone", regs)
	}
}

func TestCompareIgnoresUnknownBenchmarks(t *testing.T) {
	base := results("base", Result{Name: "retired", NsPerOp: 10})
	cur := results("cur", Result{Name: "brand-new", NsPerOp: 99999, AllocsPerOp: 50})
	if regs := Compare(cur, base, 25); len(regs) != 0 {
		t.Fatalf("added/retired benchmarks flagged: %v", regs)
	}
}

// TestRunMicroSuite executes two real micro benchmarks end to end through
// the Run machinery (testing.Benchmark under the hood) and sanity-checks
// the measurements: the curated hot paths must be allocation-free.
func TestRunMicroSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	rs, err := Run([]string{"kernel/schedule-pop", "vproto/enc-factored"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", r.Name, r)
		}
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op, want the curated hot path allocation-free", r.Name, r.AllocsPerOp)
		}
	}
	if _, err := Run([]string{"no-such-benchmark"}, nil); err == nil {
		t.Error("unknown benchmark name should error")
	}
}

func TestRatchetGatesBeyondNoise(t *testing.T) {
	best := results("best",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 1000, AllocsPerOp: 0},
		Result{Name: "steady", NsPerOp: 1000, AllocsPerOp: 4},
	)
	cur := results("cur",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 1100, AllocsPerOp: 0},    // +10% > 5% noise
		Result{Name: "steady", NsPerOp: 1030, AllocsPerOp: 4}, // +3%: inside the band
	)
	regs, improved := Ratchet(cur, best, 5)
	if len(regs) != 1 || regs[0].Name != "hot" || regs[0].Metric != "ns/op" {
		t.Fatalf("Ratchet = %v, want one ns/op regression on hot", regs)
	}
	if improved {
		t.Error("a regressing run must not advance the ratchet")
	}
}

func TestRatchetAdvancesOnImprovement(t *testing.T) {
	best := results("best",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 1000, AllocsPerOp: 4},
	)
	within := results("cur",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 980, AllocsPerOp: 4}, // -2%: noise, not progress
	)
	if regs, improved := Ratchet(within, best, 5); len(regs) != 0 || improved {
		t.Fatalf("within-noise run: regs=%v improved=%v, want clean and no advance", regs, improved)
	}
	faster := results("cur",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 900, AllocsPerOp: 4}, // -10%: real progress
	)
	if regs, improved := Ratchet(faster, best, 5); len(regs) != 0 || !improved {
		t.Fatalf("faster run: regs=%v improved=%v, want clean advance", regs, improved)
	}
	leaner := results("cur",
		Result{Name: CalibName, NsPerOp: 100},
		Result{Name: "hot", NsPerOp: 1000, AllocsPerOp: 2}, // fewer allocs
	)
	if regs, improved := Ratchet(leaner, best, 5); len(regs) != 0 || !improved {
		t.Fatalf("leaner run: regs=%v improved=%v, want clean advance", regs, improved)
	}
}

func TestRatchetMissingBenchmarkFails(t *testing.T) {
	best := results("best",
		Result{Name: "hot", NsPerOp: 1000},
		Result{Name: "gone", NsPerOp: 500},
	)
	cur := results("cur", Result{Name: "hot", NsPerOp: 1000})
	regs, improved := Ratchet(cur, best, 5)
	if len(regs) != 1 || regs[0].Name != "gone" || regs[0].Metric != "missing" {
		t.Fatalf("Ratchet = %v, want one missing regression on gone", regs)
	}
	if improved {
		t.Error("a run with dropped benchmarks must not advance the ratchet")
	}
}

func TestRatchetShortMismatchGatesAllocsOnly(t *testing.T) {
	best := results("best",
		Result{Name: "hot", NsPerOp: 1000, AllocsPerOp: 4},
	)
	cur := results("cur",
		Result{Name: "hot", NsPerOp: 9000, AllocsPerOp: 0}, // 9x ns but -short vs full
	)
	cur.Short = true
	regs, improved := Ratchet(cur, best, 5)
	if len(regs) != 0 {
		t.Fatalf("short-vs-full must not gate ns/op: %v", regs)
	}
	if improved {
		t.Error("a -short run must never become the recorded full-length best")
	}
	cur.Results[0].AllocsPerOp = 7 // beyond allocSlack
	if regs, _ := Ratchet(cur, best, 5); len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("alloc growth must gate regardless of mode: %v", regs)
	}
}

func TestRatchetNewBenchmarkAdvances(t *testing.T) {
	best := results("best", Result{Name: "hot", NsPerOp: 1000})
	cur := results("cur",
		Result{Name: "hot", NsPerOp: 1000},
		Result{Name: "fresh", NsPerOp: 100},
	)
	regs, improved := Ratchet(cur, best, 5)
	if len(regs) != 0 || !improved {
		t.Fatalf("new benchmark: regs=%v improved=%v, want clean advance recording it", regs, improved)
	}
}

func TestRatchetShortMismatchAllocWarmupWobble(t *testing.T) {
	best := results("best",
		Result{Name: "cell", NsPerOp: 8e6, AllocsPerOp: 75110},
	)
	cur := results("cur",
		Result{Name: "cell", NsPerOp: 8e6, AllocsPerOp: 75236}, // +0.17%: short-run warmup amortization
	)
	cur.Short = true
	if regs, _ := Ratchet(cur, best, 5); len(regs) != 0 {
		t.Fatalf("cross-mode sub-noise alloc wobble must pass: %v", regs)
	}
	cur.Results[0].AllocsPerOp = 80000 // +6.5%: beyond the noise band
	if regs, _ := Ratchet(cur, best, 5); len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("cross-mode alloc growth beyond the band must gate: %v", regs)
	}
	cur.Short = false // same mode: the tight absolute slack applies again
	cur.Results[0].AllocsPerOp = 75236
	if regs, _ := Ratchet(cur, best, 5); len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("same-mode alloc growth beyond the absolute slack must gate: %v", regs)
	}
}

func TestRatchetGatesKernelCountersExactly(t *testing.T) {
	counters := func(events, resumes float64) map[string]float64 {
		return map[string]float64{"events/op": events, "resumes/op": resumes}
	}
	best := results("best",
		Result{Name: "cell", NsPerOp: 8e6, AllocsPerOp: 100, Metrics: counters(5000, 1200)},
		Result{Name: "micro", NsPerOp: 10},
	)
	for _, short := range []bool{false, true} {
		cur := results("cur",
			Result{Name: "cell", NsPerOp: 8e6, AllocsPerOp: 100, Metrics: counters(5001, 1200)},
			Result{Name: "micro", NsPerOp: 10},
		)
		cur.Short = short
		regs, improved := Ratchet(cur, best, 5)
		if len(regs) != 1 || regs[0].Metric != "events/op" || regs[0].Cur != 5001 || improved {
			t.Fatalf("short=%v: one more event per op: regs=%v improved=%v, want one events/op regression", short, regs, improved)
		}
		cur.Results[0].Metrics = counters(5000, 1201)
		if regs, _ := Ratchet(cur, best, 5); len(regs) != 1 || regs[0].Metric != "resumes/op" {
			t.Fatalf("short=%v: one more resume per op: regs=%v, want one resumes/op regression", short, regs)
		}
		cur.Results[0].Metrics = map[string]float64{"events/op": 5000}
		if regs, _ := Ratchet(cur, best, 5); len(regs) != 1 || regs[0].Metric != "resumes/op" ||
			!strings.Contains(regs[0].String(), "not reported") {
			t.Fatalf("short=%v: dropped counter: regs=%v, want one resumes/op regression", short, regs)
		}
		cur.Results[0].Metrics = counters(4000, 1200)
		regs, improved = Ratchet(cur, best, 5)
		if len(regs) != 0 || improved == short {
			t.Fatalf("short=%v: fewer events: regs=%v improved=%v, want clean, advancing only full-length", short, regs, improved)
		}
	}
}
