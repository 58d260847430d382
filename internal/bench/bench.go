// Package bench is the repository's performance-trajectory subsystem: a
// curated suite of micro benchmarks (simulation kernel, mailboxes, network
// sends, piggyback reducers, determinant codecs) and macro benchmarks (one
// cell per protocol stack, a small Figure-7-style sweep) with machinery to
// serialize results as committed baselines and gate regressions in CI.
//
// The contract mirrors the repo's north star: every hot-path change must be
// measurable. `cmd/bench` runs the suite, writes BENCH_<label>.json, and
// compares against the committed BENCH_baseline.json; the CI bench job
// fails when a curated benchmark regresses beyond the gate threshold in
// ns/op or allocs/op.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Metrics holds the benchmark's own per-op counters (b.ReportMetric),
	// keyed by unit: the macro cells' events/op and resumes/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Results is a run of the suite with its provenance — what future runs
// diff against. Serialized as BENCH_<label>.json.
type Results struct {
	Label     string   `json:"label"`
	SHA       string   `json:"sha"`
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	Short     bool     `json:"short"`
	Results   []Result `json:"results"`
}

// Get returns the named result, or nil.
func (r *Results) Get(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// FileName returns the baseline file convention for a label.
func FileName(label string) string { return "BENCH_" + label + ".json" }

// Save writes r to path as indented JSON.
func (r *Results) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a results file written by Save.
func Load(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// New assembles a Results envelope around measurements.
func New(label, sha string, short bool, results []Result) *Results {
	return &Results{
		Label:     label,
		SHA:       sha,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Short:     short,
		Results:   results,
	}
}

// Run executes the named benchmarks (all registered ones when names is
// empty) through testing.Benchmark and returns their results in name order.
// progress, when non-nil, is invoked before each benchmark.
//
// Each benchmark runs with the garbage collector disabled (a forced
// collection between benchmarks bounds the footprint): a GC cycle flushes
// the sync.Pool packet pools mid-measurement, and the refill allocations
// land on whichever run the collector happened to interrupt — ±1 allocs/op
// of scheduler noise that the zero-slack equality gate would report as a
// hot-path regression. With collection pinned outside the measured window,
// allocs/op is a pure function of the code under test.
func Run(names []string, progress func(name string)) ([]Result, error) {
	suite := Suite()
	if len(names) == 0 {
		names = Names()
	}
	results := make([]Result, 0, len(names))
	for _, name := range names {
		fn, ok := suite[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
		if progress != nil {
			progress(name)
		}
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		debug.SetGCPercent(gcPercent)
		results = append(results, Result{
			Name:        name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Iterations:  br.N,
			Metrics:     br.Extra,
		})
	}
	return results, nil
}

// Names lists every registered benchmark in sorted order.
func Names() []string {
	suite := Suite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
