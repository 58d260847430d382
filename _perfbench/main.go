// Command perfbench is the repository benchmark. It runs one seeded sweep
// workload through the public harness and cluster API, each pass in a
// fresh process, checks every cell's output, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced pass
// (--trace 1). The last line of standard output is one JSON object. See
// README.md for the metrics and workloads.
//
//	bash _perfbench/run.sh --workload piggyback-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// commit identifies the measured source; run.sh sets it at link time.
var commit = "unknown"

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by --trace 0, from untraced passes.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_msgs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"heap_retained_mb", "MB"},
	{"setup_s", "s"},
	{"cells_ok_frac", "frac"},
}

// perLayerMetrics are reported by --trace 1, from traced passes.
var perLayerMetrics = []metricDef{
	{"runtime.switch_cpu_ms", "ms"},
	{"runtime.gc_cpu_ms", "ms"},
	{"runtime.other_cpu_ms", "ms"},
	{"causal.cpu_ms", "ms"},
	{"sparsevec.cpu_ms", "ms"},
	{"sim.cpu_ms", "ms"},
	{"daemon.cpu_ms", "ms"},
	{"protocols.cpu_ms", "ms"},
	{"netmodel.cpu_ms", "ms"},
	{"eventlogger.cpu_ms", "ms"},
	{"checkpoint.cpu_ms", "ms"},
	{"failure.cpu_ms", "ms"},
	{"faultplan.cpu_ms", "ms"},
	{"workload.cpu_ms", "ms"},
	{"vproto.cpu_ms", "ms"},
	{"other.cpu_ms", "ms"},
	{"runtime.goroutines_leaked", "count"},
	{"sim.live_procs_at_end", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_tail", "ms"},
	{"harness.cell_tail_pct", "%"},
	{"harness.cells_beyond_tail", "count"},
	{"harness.worker_idle_frac", "frac"},
	{"harness.results_json_ms", "ms"},
	{"cluster.setup_ms", "ms"},
	{"cluster.run_ms", "ms"},
	{"netmodel.msgs", "count"},
	{"netmodel.bytes", "B"},
	{"causal.piggyback_events", "count"},
	{"causal.piggyback_bytes", "B"},
	{"causal.max_held_dets", "count"},
	{"eventlogger.events_stored", "count"},
	{"eventlogger.max_queue", "count"},
	{"checkpoint.images", "count"},
	{"checkpoint.bytes", "B"},
	{"failure.recoveries", "count"},
	{"faultplan.kills", "count"},
	{"sim.virtual_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// setupProbes is how many set-up-only passes a run makes besides the
// set-up of its full passes, so setup_s is a median of several.
const setupProbes = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "measurement budget: passes start only while they are expected to finish within it")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	pass := fs.String("pass", "", "run one pass (setup, untraced or traced) in this process and print its report")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traced spans, CPU profiles and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	workers := runtime.NumCPU()
	if *pass != "" {
		rep, err := runPass(*pass, w, *seed, workers, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b := &bench{
		w: w, seed: *seed, traced: *traced == 1, workers: workers,
		budget: time.Duration(*seconds * float64(time.Second)),
		outDir: filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed)),
	}
	res, err := b.measure(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		if err := writeJSON(filepath.Join(b.outDir, "report.json"), res.report(b)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := res.print(stdout, b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one benchmark run: passes of one workload and seed.
type bench struct {
	w       *benchWorkload
	seed    int64
	traced  bool
	workers int
	budget  time.Duration
	outDir  string
}

// result aggregates a run's passes.
type result struct {
	setups    []float64
	untraced  []*passReport
	traced    []*passReport
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

// spawn runs one pass in a fresh process and returns its report and
// set-up time, measured from just before the process was started.
func (b *bench) spawn(mode string, stderr io.Writer) (*passReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "--pass", mode, "--workload", b.w.name,
		"--seed", strconv.FormatInt(b.seed, 10), "--out", b.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s pass: %w", mode, err)
	}
	var rep passReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s pass: bad report: %w", mode, err)
	}
	return &rep, float64(rep.EnterUnixNs-start.UnixNano()) / 1e9, nil
}

// measure makes the set-up probes, then full passes (untraced, plus a
// traced one each time with --trace 1) while the next is expected to end
// within the budget; at least one.
func (b *bench) measure(stderr io.Writer) (*result, error) {
	r := &result{}
	start := time.Now()
	for i := 0; i < setupProbes; i++ {
		_, s, err := b.spawn(modeSetup, stderr)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s)
	}
	for {
		t := time.Now()
		u, s, err := b.spawn(modeUntraced, stderr)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s)
		r.untraced = append(r.untraced, u)
		if b.traced {
			tr, s, err := b.spawn(modeTraced, stderr)
			if err != nil {
				return nil, err
			}
			r.setups = append(r.setups, s)
			r.traced = append(r.traced, tr)
		}
		if time.Since(start)+time.Since(t) > b.budget {
			break
		}
	}
	r.check()
	r.aggregate(b.traced)
	return r, nil
}

// check counts the cells that failed the output check in any pass, and
// the cells whose simulated result differs from the first untraced pass.
// Passes of one run share their inputs, so results and hash must agree.
func (r *result) check() {
	ref := r.untraced[0]
	for _, p := range append(append([]*passReport(nil), r.untraced...), r.traced...) {
		r.attempted += len(p.Cells)
		bad := len(p.Bad)
		r.problems = append(r.problems, p.Bad...)
		switch {
		case len(p.Cells) != len(ref.Cells):
			bad = len(p.Cells)
			r.problems = append(r.problems, fmt.Sprintf("%s pass ran %d cells, first untraced pass %d", p.Mode, len(p.Cells), len(ref.Cells)))
		case p.Hash != ref.Hash:
			diff := 0
			for i := range p.Cells {
				if p.Cells[i] != ref.Cells[i] {
					diff++
				}
			}
			bad = max(bad, diff, 1)
			r.problems = append(r.problems, fmt.Sprintf("%s pass: results hash %.12s differs from %.12s (%d cells differ)", p.Mode, p.Hash, ref.Hash, diff))
		}
		r.failed += min(bad, len(p.Cells))
	}
}

// aggregate takes the median of every metric over the run's passes.
func (r *result) aggregate(traced bool) {
	r.metrics = map[string]float64{}
	pick := func(f func(*passReport) float64) float64 {
		xs := make([]float64, len(r.untraced))
		for i, p := range r.untraced {
			xs[i] = f(p)
		}
		return median(xs)
	}
	if !traced {
		r.metrics["wall_s"] = pick(func(p *passReport) float64 { return p.WallS })
		r.metrics["cpu_s"] = pick(func(p *passReport) float64 { return p.CPUS })
		r.metrics["sim_msgs_per_s"] = pick(func(p *passReport) float64 { return float64(p.WireMsgs) / p.WallS })
		r.metrics["peak_rss_mb"] = pick(func(p *passReport) float64 { return p.PeakRSSMB })
		r.metrics["heap_retained_mb"] = pick(func(p *passReport) float64 { return p.HeapRetainedMB })
		r.metrics["setup_s"] = median(r.setups)
		r.metrics["cells_ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
		return
	}
	for _, m := range perLayerMetrics {
		xs := make([]float64, len(r.traced))
		for i, p := range r.traced {
			xs[i] = p.Layers[m.name]
		}
		r.metrics[m.name] = median(xs)
	}
	tracedWall := make([]float64, len(r.traced))
	for i, p := range r.traced {
		tracedWall[i] = p.WallS
	}
	r.metrics["trace.overhead_frac"] = median(tracedWall)/pick(func(p *passReport) float64 { return p.WallS }) - 1
}

func (r *result) defs(b *bench) []metricDef {
	if b.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// env records where and on what a result was measured.
func (b *bench) env() map[string]any {
	return map[string]any{
		"workload": b.w.name, "seed": b.seed, "nproc": runtime.NumCPU(),
		"GOMAXPROCS": runtime.GOMAXPROCS(0), "workers": b.workers,
		"go": runtime.Version(), "commit": commit,
	}
}

// report is the traced run's record, written next to its spans and CPU
// profile.
func (r *result) report(b *bench) map[string]any {
	return map[string]any{
		"env":          b.env(),
		"metrics":      r.jsonMetrics(b),
		"results_hash": r.untraced[0].Hash,
		"passes":       map[string]int{"untraced": len(r.untraced), "traced": len(r.traced), "setup": setupProbes},
		"attempted":    r.attempted,
		"failed":       r.failed,
		"problems":     r.problems,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) jsonMetrics(b *bench) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range r.defs(b) {
		out[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
	}
	return out
}

// print writes the readable summary, then the one-line JSON result.
func (r *result) print(w io.Writer, b *bench) error {
	env, err := json.Marshal(b.env())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "passes: %d untraced, %d traced, %d set-up probes; results hash %.16s\n",
		len(r.untraced), len(r.traced), setupProbes, r.untraced[0].Hash)
	for _, m := range r.defs(b) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, r.metrics[m.name], m.unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g frac (%d of %d cells)\n", "cells_failed_frac",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.jsonMetrics(b),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
