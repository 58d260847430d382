package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/failure"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 66, value: 56, pct: 100 * 56.0 / 66, beyond: 10}, // piggyback-sweep
		{n: 11, value: 1, pct: 100 * 1.0 / 11, beyond: 10},   // smallest n that meets the rule
		{n: 9, value: 9, pct: 100, beyond: 0},                // too few: the maximum, count says so
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		got := tail(seq(tc.n), tailBeyond)
		if got.value != tc.value || math.Abs(got.pct-tc.pct) > 1e-9 || got.beyond != tc.beyond {
			t.Errorf("tail of %d samples = %+v, want value %v pct %.4f beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
	}
	if got := tail(nil, tailBeyond); got != (tailStat{}) {
		t.Errorf("tail of no samples = %+v", got)
	}
}

func TestIdleFrac(t *testing.T) {
	for _, tc := range []struct {
		busy    float64
		workers int
		wall    float64
		want    float64
	}{
		{busy: 30, workers: 2, wall: 20, want: 0.25},
		{busy: 40, workers: 2, wall: 20, want: 0},
		{busy: 5, workers: 1, wall: 20, want: 0.75},
		{busy: 5, workers: 0, wall: 20, want: 0},
		{busy: 5, workers: 2, wall: 0, want: 0},
	} {
		if got := idleFrac(tc.busy, tc.workers, tc.wall); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("idleFrac(%v, %d, %v) = %v, want %v", tc.busy, tc.workers, tc.wall, got, tc.want)
		}
	}
}

func TestSpanMetrics(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "sweep/s", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "cell", Start: 0, End: 60 * ms, Parent: 0, Cell: "a"},
		{Name: "workload.Build", Start: 0, End: 2 * ms, Parent: 1, Cell: "a"},
		{Name: "cluster.New", Start: 2 * ms, End: 5 * ms, Parent: 1, Cell: "a"},
		{Name: "sim.RunUntil", Start: 5 * ms, End: 60 * ms, Parent: 1, Cell: "a"},
		{Name: "cell", Start: 0, End: 90 * ms, Parent: 0, Cell: "b"},
		{Name: "failure.Launch", Start: 0, End: 1 * ms, Parent: 5, Cell: "b"},
		{Name: "sim.RunUntil", Start: 1 * ms, End: 90 * ms, Parent: 5, Cell: "b"},
	}
	out := map[string]float64{}
	addSpanMetrics(out, spans, 2, 0.1)
	want := map[string]float64{
		"harness.cell_ms_p50":       75,
		"harness.cell_ms_tail":      90, // two cells: the maximum
		"harness.cell_tail_pct":     100,
		"harness.cells_beyond_tail": 0,
		"harness.worker_idle_frac":  1 - 0.15/0.2,
		"cluster.setup_ms":          6,
		"cluster.run_ms":            144,
	}
	for k, v := range want {
		if math.Abs(out[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, out[k], v)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mpichv/internal/causal/sparsevec.(*Vec).Set":                    "mpichv/internal/causal/sparsevec",
		"mpichv/internal/sim.(*Kernel).RunUntil.func1":                   "mpichv/internal/sim",
		"mpichv/internal/sim.siftDown[go.shape.*mpichv/internal/sim.ev]": "mpichv/internal/sim",
		"runtime.chansend1":                      "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "internal/runtime/atomic",
		"sort.Slice":                             "sort",
		"main.run":                               "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"mpichv/internal/causal.(*Vcausal).Send", "mpichv/internal/daemon.(*Node).send"}, "causal.cpu_ms"},
		{[]string{"mpichv/internal/causal/sparsevec.(*Vec).Set"}, "sparsevec.cpu_ms"},
		{[]string{"mpichv/internal/mpi.(*Comm).Send"}, "workload.cpu_ms"},
		{[]string{"mpichv/internal/event.Encode"}, "vproto.cpu_ms"},
		{[]string{"mpichv/internal/cluster.New"}, "other.cpu_ms"},
		{[]string{"mpichv/internal/harness.Run"}, "other.cpu_ms"},
		// A standard-library leaf counts toward the nearest module caller.
		{[]string{"sort.insertionSort", "sort.Slice", "mpichv/internal/eventlogger.(*Server).storeEvents"}, "eventlogger.cpu_ms"},
		{[]string{"encoding/json.Marshal", "main.record"}, "other.cpu_ms"},
		// Runtime leaves split by stack.
		{[]string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", "mpichv/internal/sim.(*Proc).yield"}, "runtime.switch_cpu_ms"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.switch_cpu_ms"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc_cpu_ms"},
		{[]string{"runtime.gopark", "runtime.gcBgMarkWorker"}, "runtime.gc_cpu_ms"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc_cpu_ms"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "mpichv/internal/causal.(*Graph).add"}, "runtime.other_cpu_ms"},
		{[]string{"runtime.memmove", "mpichv/internal/netmodel.(*Network).Send"}, "runtime.other_cpu_ms"},
		{[]string{"runtime._ExternalCode"}, "runtime.other_cpu_ms"},
		{nil, "runtime.other_cpu_ms"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// burnCPU is a known leaf for the profile-decoding test.
//
//go:noinline
func burnCPU(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, cpuNs, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for i, st := range stacks {
		total += cpuNs[i]
		if slices.ContainsFunc(st, func(fn string) bool { return strings.HasSuffix(fn, ".burnCPU") }) {
			burn += cpuNs[i]
		}
	}
	if burn == 0 || burn < total/2 {
		t.Fatalf("burnCPU drew %d of %d profiled ns; want most of them", burn, total)
	}
	layers, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(cpuLayers) {
		t.Errorf("cpuByLayer reported %d metrics, want all %d", len(layers), len(cpuLayers))
	}
	var sum float64
	for _, v := range layers {
		sum += v
	}
	if math.Abs(sum-float64(total)/1e6) > 1e-6 {
		t.Errorf("layers sum to %v ms, profile holds %v ms", sum, float64(total)/1e6)
	}
	if _, _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

// fakeBaseline stands in for fault-storm's first sweep.
func fakeBaseline() []*harness.Results {
	res := &harness.Results{Name: "fault-storm-baseline"}
	for _, st := range stormStacks {
		res.Cells = append(res.Cells, harness.CellResult{Stack: st.Key, Elapsed: 60 * sim.Second})
	}
	return []*harness.Results{res}
}

func TestSeedDeterminesCells(t *testing.T) {
	type idSeed struct {
		id   string
		seed int64
	}
	expand := func(w *benchWorkload, seed int64, phase int) []idSeed {
		var prev []*harness.Results
		if phase > 0 {
			prev = fakeBaseline()
		}
		var out []idSeed
		for _, c := range w.sweep(seed, phase, prev).Cells() {
			out = append(out, idSeed{c.ID, c.Config.Seed})
		}
		return out
	}
	wantCells := map[string][]int{
		"piggyback-sweep": {66}, "fault-storm": {5, 25}, "service-horizon": {9}, "np64-sparse": {3},
	}
	for i := range workloads {
		w := &workloads[i]
		if len(wantCells[w.name]) != w.phases {
			t.Fatalf("%s: %d phases, want %d", w.name, w.phases, len(wantCells[w.name]))
		}
		for phase := 0; phase < w.phases; phase++ {
			a, b := expand(w, 7, phase), expand(w, 7, phase)
			if !slices.Equal(a, b) {
				t.Errorf("%s phase %d: one seed gave two cell sets", w.name, phase)
			}
			if len(a) != wantCells[w.name][phase] {
				t.Errorf("%s phase %d: %d cells, want %d", w.name, phase, len(a), wantCells[w.name][phase])
			}
			c := expand(w, 8, phase)
			for j := range a {
				if a[j].id != c[j].id {
					t.Errorf("%s: seed changed cell ID %q to %q", w.name, a[j].id, c[j].id)
				}
				if a[j].seed == c[j].seed {
					t.Errorf("%s: cell %q kept seed %d under another benchmark seed", w.name, a[j].id, a[j].seed)
				}
			}
		}
	}
}

// stormKills runs a fault-storm Poisson cell for its first virtual minute
// and returns the injected kills.
func stormKills(t *testing.T, seed int64) []failure.Event {
	t.Helper()
	w, err := findWorkload("fault-storm")
	if err != nil {
		t.Fatal(err)
	}
	var cell *harness.Cell
	cells := w.sweep(seed, 1, fakeBaseline()).Cells()
	for i := range cells {
		if cells[i].ID == "bt.A.9x4|Vcausal (EL)|poisson-storm" {
			cell = &cells[i]
		}
	}
	if cell == nil {
		t.Fatal("poisson-storm cell missing")
	}
	in := cell.Workload.Build()
	cfg := cell.Config
	cfg.AppStateBytes = in.AppStateBytes
	c := cluster.New(cfg)
	d := c.PrepareRun(in.Programs)
	var kills []failure.Event
	d.Observe(func(ev failure.Event) {
		if ev.Kind == failure.EvKill {
			kills = append(kills, ev)
		}
	})
	d.Launch()
	c.K.RunUntil(sim.Minute)
	return kills
}

func TestSeedChangesFaultDraws(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulated minutes")
	}
	a, again, b := stormKills(t, 1), stormKills(t, 1), stormKills(t, 2)
	if len(a) == 0 {
		t.Fatal("no kills in the first virtual minute")
	}
	if !slices.Equal(a, again) {
		t.Errorf("one seed drew two fault sequences:\n%v\n%v", a, again)
	}
	if slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 drew the same faults: %v", a)
	}
}

// TestTracedDriverMirrorsHarness runs one small sweep through harness.Run
// at two worker counts and through the benchmark's traced cell driver; all
// three must serialize byte-identically.
func TestTracedDriverMirrorsHarness(t *testing.T) {
	spec := &harness.SweepSpec{
		Name:      "mirror",
		Workloads: nas(workload.Spec{Bench: "cg", Class: "A", NP: 4}),
		Stacks:    []harness.Stack{elReducers[0], causalStacks[4]},
		Variants: []harness.Variant{
			{Key: "fault-free"},
			{Key: "kill", FaultAt: 500 * sim.Millisecond, CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 200 * sim.Millisecond},
		},
		BaseSeed: 3,
	}
	js := func(r *harness.Results) string {
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	one := js(harness.Run(spec, harness.Options{Parallel: 1}))
	two := js(harness.Run(spec, harness.Options{Parallel: 2}))
	log := &spanLog{t0: time.Now()}
	res, counts := driveSweep(log, spec, 2)
	traced := js(res)
	if one != two {
		t.Fatal("harness results differ across worker counts")
	}
	if traced != one {
		t.Fatalf("traced driver diverges from harness:\n%s\nvs\n%s", traced, one)
	}
	if len(counts) != 4 {
		t.Errorf("got %d cell counts, want 4", len(counts))
	}
	names := map[string]int{}
	for _, s := range log.spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v not closed", s)
		}
	}
	for _, n := range []string{"workload.Build", "cluster.New", "cluster.PrepareRun", "failure.Launch", "sim.RunUntil", "cluster.AggregateStats", "cell"} {
		if names[n] != 4 {
			t.Errorf("%d %q spans, want 4", names[n], n)
		}
	}
	if names["failure.ScheduleFault"] != 2 {
		t.Errorf("%d failure.ScheduleFault spans, want 2", names["failure.ScheduleFault"])
	}
}

func TestCheckCountsMismatches(t *testing.T) {
	cells := []cellRecord{{ID: "a", Outcome: "completed", End: 1}, {ID: "b", Outcome: "completed", End: 2}}
	moved := slices.Clone(cells)
	moved[1].End = 3
	r := &result{
		untraced: []*passReport{
			{Mode: modeUntraced, Hash: "h", Cells: cells},
			{Mode: modeUntraced, Hash: "h", Cells: cells, Bad: []string{"a: outcome"}},
		},
		traced: []*passReport{{Mode: modeTraced, Hash: "x", Cells: moved}},
	}
	r.check()
	if r.attempted != 6 || r.failed != 2 || len(r.problems) != 2 {
		t.Errorf("attempted %d failed %d problems %v; want 6, 2 and two problems", r.attempted, r.failed, r.problems)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json in step with the metrics
// and workloads this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
