package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/failure"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
	"mpichv/internal/workload"
)

// A pass is one run of a workload in a fresh process: "setup" stops where
// harness.Run would be entered, "untraced" runs the sweeps through
// harness.Run, "traced" runs them through the benchmark's own cell driver
// with spans and a CPU profile.
const (
	modeSetup    = "setup"
	modeUntraced = "untraced"
	modeTraced   = "traced"
)

// cellRecord is the part of a cell's result the checks compare across
// passes.
type cellRecord struct {
	ID      string          `json:"id"`
	Outcome cluster.Outcome `json:"outcome"`
	Err     string          `json:"err,omitempty"`
	End     sim.Time        `json:"end_ns"`
	Stats   trace.Stats     `json:"stats"`
}

// passReport is what a pass process prints as its only stdout line.
type passReport struct {
	Mode string `json:"mode"`
	// EnterUnixNs is the wall-clock instant the sweep was about to start;
	// the parent subtracts its spawn instant to get the set-up time.
	EnterUnixNs int64   `json:"enter_unix_ns"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	// HeapRetainedMB is the live heap after the sweeps and a forced GC.
	HeapRetainedMB float64 `json:"heap_retained_mb"`
	// WireMsgs is AppMsgsSent + ControlMsgs summed over every cell.
	WireMsgs int64 `json:"wire_msgs"`
	// Hash is the SHA-256 of every sweep's Results.JSON(), in order.
	Hash  string       `json:"hash"`
	Cells []cellRecord `json:"cells"`
	// Bad lists the cells that failed the output check, with the reason.
	Bad []string `json:"bad,omitempty"`
	// Layers holds the per-layer metrics of a traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runPass executes one pass of w in this process. outDir receives the
// traced pass's spans and CPU profile.
func runPass(mode string, w *benchWorkload, seed int64, workers int, outDir string) (*passReport, error) {
	first := w.sweep(seed, 0, nil)
	first.Cells() // input expansion is part of set-up
	rep := &passReport{Mode: mode, EnterUnixNs: time.Now().UnixNano()}
	switch mode {
	case modeSetup:
		return rep, nil
	case modeUntraced:
		runUntraced(rep, w, seed, first, workers)
	case modeTraced:
		if err := runTraced(rep, w, seed, first, workers, outDir); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown pass mode %q", mode)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapRetainedMB = float64(ms.HeapAlloc) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return rep, nil
}

// runUntraced runs the workload's sweeps through harness.Run.
func runUntraced(rep *passReport, w *benchWorkload, seed int64, first *harness.SweepSpec, workers int) {
	cpu0 := cpuSeconds()
	start := time.Now()
	var all []*harness.Results
	for phase := 0; phase < w.phases; phase++ {
		spec := first
		if phase > 0 {
			spec = w.sweep(seed, phase, all)
		}
		all = append(all, harness.Run(spec, harness.Options{Parallel: workers}))
	}
	rep.WallS = time.Since(start).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	record(rep, w, all)
}

// record fills the pass's cell records, output check, wire-message count
// and hash from the sweeps' results, and returns the time Results.JSON
// took.
func record(rep *passReport, w *benchWorkload, all []*harness.Results) time.Duration {
	h := sha256.New()
	var jsonTime time.Duration
	for _, res := range all {
		t := time.Now()
		js, err := res.JSON()
		jsonTime += time.Since(t)
		if err != nil {
			rep.Bad = append(rep.Bad, fmt.Sprintf("sweep %s: results JSON: %v", res.Name, err))
		}
		h.Write(js)
		for i := range res.Cells {
			cr := &res.Cells[i]
			rep.Cells = append(rep.Cells, cellRecord{
				ID: res.Name + "/" + cr.ID, Outcome: cr.Outcome, Err: cr.Err, End: cr.Elapsed, Stats: cr.Stats,
			})
			rep.WireMsgs += cr.Stats.AppMsgsSent + cr.Stats.ControlMsgs
			switch {
			case cr.Err != "":
				rep.Bad = append(rep.Bad, fmt.Sprintf("%s/%s: error: %s", res.Name, cr.ID, cr.Err))
			case !w.expects(cr.Variant, cr.Outcome):
				rep.Bad = append(rep.Bad, fmt.Sprintf("%s/%s: outcome %q not in %v", res.Name, cr.ID, cr.Outcome, w.expectedFor(cr.Variant)))
			}
		}
	}
	rep.Hash = hex.EncodeToString(h.Sum(nil))
	return jsonTime
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for none); spans of one cell share its ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell,omitempty"`
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) begin(name string, parent int, cell string) int {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: now, End: -1, Parent: parent, Cell: cell})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, parent int, cell string, fn func()) {
	i := l.begin(name, parent, cell)
	defer l.end(i)
	fn()
}

// cellCounts are a cell's work counters, read through public accessors
// after its run.
type cellCounts struct {
	elStored  int64
	elQueue   int
	kills     int64
	liveProcs int
}

// runTraced drives each sweep's cells through a worker pool of its own,
// mirroring harness.Run's per-cell execution call for call, with a span
// around every call into a layer and a CPU profile over the whole pass.
func runTraced(rep *passReport, w *benchWorkload, seed int64, first *harness.SweepSpec, workers int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	var prof bytes.Buffer
	log := &spanLog{t0: time.Now()}
	goroutines0 := runtime.NumGoroutine()
	rt0 := readRuntimeMetrics()
	cpu0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	start := time.Now()
	var (
		all    []*harness.Results
		counts []cellCounts
	)
	for phase := 0; phase < w.phases; phase++ {
		spec := first
		if phase > 0 {
			spec = w.sweep(seed, phase, all)
		}
		res, cc := driveSweep(log, spec, workers)
		all = append(all, res)
		counts = append(counts, cc...)
	}
	rep.WallS = time.Since(start).Seconds()
	pprof.StopCPUProfile()
	rep.CPUS = cpuSeconds() - cpu0
	rt1 := readRuntimeMetrics()
	leaked := runtime.NumGoroutine() - goroutines0

	jsonTime := record(rep, w, all)

	layers, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	addSpanMetrics(layers, log.spans, workers, rep.WallS)
	layers["harness.results_json_ms"] = jsonTime.Seconds() * 1e3
	addWorkCounts(layers, all, counts)
	layers["runtime.goroutines_leaked"] = float64(leaked)
	layers["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
	layers["runtime.mallocs"] = rt1.allocObjects - rt0.allocObjects
	layers["runtime.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	rep.Layers = layers

	if err := os.WriteFile(filepath.Join(outDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	return writeJSON(filepath.Join(outDir, "spans.json"), log.spans)
}

// driveSweep runs one sweep's cells on a closed-loop worker pool: each
// worker takes the next cell when its previous one finishes.
func driveSweep(log *spanLog, spec *harness.SweepSpec, workers int) (*harness.Results, []cellCounts) {
	sweepSpan := log.begin("sweep/"+spec.Name, -1, "")
	defer log.end(sweepSpan)
	var cells []harness.Cell
	log.timed("harness.Cells", sweepSpan, "", func() { cells = spec.Cells() })
	res := &harness.Results{Name: spec.Name, Cells: make([]harness.CellResult, len(cells))}
	counts := make([]cellCounts, len(cells))
	if workers > len(cells) {
		workers = len(cells)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				res.Cells[idx], counts[idx] = driveCell(log, sweepSpan, &cells[idx])
			}
		}()
	}
	for idx := range cells {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	return res, counts
}

// driveCell is harness's per-cell execution (no timeout, no probes, no
// tracing) with a span around each layer call.
func driveCell(log *spanLog, parent int, cell *harness.Cell) (cr harness.CellResult, cc cellCounts) {
	variant := cell.Variant.Key
	if variant == "" {
		variant = "base"
	}
	cr = harness.CellResult{
		Index: cell.Index, ID: cell.ID, Workload: cell.Workload.Key, Stack: cell.Stack.Key,
		Variant: variant, NP: cell.Config.NP, Seed: cell.Config.Seed,
	}
	cellSpan := log.begin("cell", parent, cell.ID)
	defer log.end(cellSpan)
	defer func() {
		if r := recover(); r != nil {
			cr.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if len(cell.Probes) > 0 {
		panic("benchmark cells collect no probes")
	}
	call := func(name string, fn func()) { log.timed(name, cellSpan, cell.ID, fn) }

	var in *workload.Instance
	call("workload.Build", func() { in = cell.Workload.Build() })
	cfg := cell.Config
	if in.AppStateBytes > 0 {
		cfg.AppStateBytes = in.AppStateBytes
	}
	var c *cluster.Cluster
	call("cluster.New", func() { c = cluster.New(cfg) })
	var d *failure.Dispatcher
	call("cluster.PrepareRun", func() { d = c.PrepareRun(in.Programs) })
	if cell.FaultAt > 0 {
		call("failure.ScheduleFault", func() { d.ScheduleFault(cell.FaultAt, 0) })
	}
	if cell.FaultEvery > 0 {
		call("failure.PeriodicFaults", func() { d.PeriodicFaults(cell.FaultEvery) })
	}
	call("failure.Launch", d.Launch)
	var end sim.Time
	call("sim.RunUntil", func() { end = c.K.RunUntil(cell.MaxVirtual) })

	cr.Completed = d.AllDone()
	cr.Outcome = c.Outcome()
	cr.DetLoss = c.FirstDetLoss()
	cr.Elapsed = end
	call("cluster.AggregateStats", func() { cr.Stats = c.AggregateStats() })
	if cr.Completed {
		cr.Mflops = in.Mflops(end)
	}
	cc.liveProcs = c.K.LiveProcs()
	if c.ELGroup != nil {
		cc.elStored = c.ELGroup.EventsStored()
		cc.elQueue = c.ELGroup.MaxQueueLen()
	}
	if c.Faults != nil {
		cc.kills = c.Faults.InjectedKills()
	}
	return cr, cc
}
