// Command bench runs the curated performance suite (internal/bench) and
// maintains the repository's benchmark baselines.
//
// Usage:
//
//	bench [-short] [-label L] [-out FILE] [-baseline FILE] [-gate PCT]
//	      [-ratchet FILE] [-noise PCT] [-equal-allocs NAME[,NAME...]]
//	      [-bench NAME[,NAME...]] [-benchtime D] [-sha REV] [-q]
//	bench -list
//
// Results are serialized to BENCH_<label>.json (override with -out).
// With -baseline the run is diffed against a committed baseline file; with
// -gate the command exits non-zero when any curated benchmark regresses by
// more than PCT percent in ns/op (calibration-normalized across machines)
// or allocs/op — the flat perf gate. -ratchet is the monotone version: the
// run is gated against the best recorded run in FILE within a -noise
// percent band (default 5), a missing benchmark is a failure, and an
// improvement beyond the band rewrites FILE with this run — so the
// committed trajectory can only go down. A -short run never rewrites a
// full-length best. -equal-allocs additionally holds the named benchmarks
// to exact allocs/op equality with the baseline (zero slack, exit non-zero
// on any increase) — the proof that the disabled observability layer costs
// nothing on the hot path.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"mpichv/internal/bench"
)

func main() {
	short := flag.Bool("short", false, "shorter benchtime per benchmark (CI mode)")
	label := flag.String("label", "local", "baseline label (writes BENCH_<label>.json)")
	out := flag.String("out", "", "output path (default BENCH_<label>.json; \"-\" suppresses the file)")
	baseline := flag.String("baseline", "", "baseline file to diff against")
	gate := flag.Float64("gate", 0, "fail when any benchmark regresses more than this percent vs -baseline (0 = report only)")
	ratchet := flag.String("ratchet", "", "best-run file for the monotone gate (fails beyond -noise, re-baselines on improvement)")
	noise := flag.Float64("noise", 5, "noise band in percent for the -ratchet gate")
	only := flag.String("bench", "", "comma-separated benchmark names to run (default all)")
	equalAllocs := flag.String("equal-allocs", "", "comma-separated benchmarks held to exact allocs/op equality vs -baseline (zero slack)")
	benchtime := flag.Duration("benchtime", 0, "per-benchmark measuring time (default 1s, 100ms with -short)")
	sha := flag.String("sha", "", "source revision recorded in the results (default: git rev-parse HEAD)")
	list := flag.Bool("list", false, "list curated benchmarks and exit")
	quiet := flag.Bool("q", false, "suppress progress on stderr")
	flag.Parse()

	if *list {
		for _, name := range bench.Names() {
			fmt.Println(name)
		}
		return
	}

	bt := *benchtime
	if bt == 0 {
		bt = time.Second
		if *short {
			bt = 100 * time.Millisecond
		}
	}
	// testing.Benchmark reads the benchtime from the testing flag set;
	// register it and set it explicitly so the CLI controls run length.
	testing.Init()
	if err := flag.Set("test.benchtime", bt.String()); err != nil {
		fatal("set benchtime: %v", err)
	}

	var names []string
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	progress := func(name string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  running %s\n", name)
		}
	}
	measured, err := bench.Run(names, progress)
	if err != nil {
		fatal("%v", err)
	}
	res := bench.New(*label, revision(*sha), *short, measured)

	for _, r := range res.Results {
		fmt.Printf("%-24s %14.1f ns/op %8d B/op %6d allocs/op",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for _, unit := range slices.Sorted(maps.Keys(r.Metrics)) {
			fmt.Printf(" %12.0f %s", r.Metrics[unit], unit)
		}
		fmt.Println()
	}

	path := *out
	if path == "" {
		path = bench.FileName(*label)
	}
	if path != "-" {
		if err := res.Save(path); err != nil {
			fatal("write %s: %v", path, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
		}
	}

	strictNames := splitNames(*equalAllocs)

	if *ratchet != "" {
		runRatchet(res, *ratchet, *noise, strictNames)
	}
	if *baseline == "" {
		return
	}
	base, err := bench.Load(*baseline)
	if err != nil {
		fatal("%v", err)
	}
	regs := bench.Compare(res, base, *gate)
	var strict []bench.Regression
	if len(strictNames) > 0 {
		strict = bench.EqualAllocs(res, base, strictNames)
	}
	if len(regs) == 0 && len(strict) == 0 {
		fmt.Printf("no regressions beyond %.0f%% vs %s (sha %.12s)\n", *gate, *baseline, base.SHA)
		return
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	for _, r := range strict {
		fmt.Printf("ALLOC-EQUALITY %s\n", r)
	}
	if *gate > 0 && len(regs) > 0 || len(strict) > 0 {
		os.Exit(1)
	}
}

// runRatchet applies the monotone gate: regressions beyond the noise band
// vs. the best recorded run (or a dropped benchmark, or an equal-allocs
// violation) exit non-zero; an improvement rewrites the best file with
// this run. A missing best file is bootstrapped from this run.
func runRatchet(res *bench.Results, path string, noise float64, strictNames []string) {
	best, err := bench.Load(path)
	if os.IsNotExist(err) {
		if err := res.Save(path); err != nil {
			fatal("bootstrap %s: %v", path, err)
		}
		fmt.Printf("ratchet: recorded first best run in %s\n", path)
		return
	}
	if err != nil {
		fatal("%v", err)
	}
	regs, improved := bench.Ratchet(res, best, noise)
	var strict []bench.Regression
	if len(strictNames) > 0 {
		strict = bench.EqualAllocs(res, best, strictNames)
	}
	if len(regs) > 0 || len(strict) > 0 {
		for _, r := range regs {
			fmt.Printf("RATCHET %s\n", r)
		}
		for _, r := range strict {
			fmt.Printf("ALLOC-EQUALITY %s\n", r)
		}
		os.Exit(1)
	}
	if improved {
		if err := res.Save(path); err != nil {
			fatal("advance ratchet %s: %v", path, err)
		}
		fmt.Printf("ratchet advanced: %s now records this run (sha %.12s)\n", path, res.SHA)
		return
	}
	fmt.Printf("within %.0f%% noise of best run %s (sha %.12s)\n", noise, path, best.SHA)
}

// splitNames parses a comma-separated name list, dropping empties.
func splitNames(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// revision resolves the recorded source revision: the explicit flag, the
// git HEAD, or "unknown" outside a checkout.
func revision(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
