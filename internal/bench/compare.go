package bench

import (
	"fmt"
	"math"
)

// CalibName is the CPU-speed calibration benchmark: a fixed arithmetic
// spin whose ns/op tracks single-core throughput of the host. Compare uses
// the calibration ratio between two runs to normalize ns/op before gating,
// so a committed baseline measured on one machine can gate CI runs on
// another without hardware speed masquerading as regression. It is never
// gated itself.
const CalibName = "calib/spin"

// allocSlack is the absolute allocs/op change ignored by the gate: pooled
// and slab-amortized paths legitimately wobble by an allocation or two
// between runs depending on warmup.
const allocSlack = 2

// kernelCounters are the Metrics units the ratchet holds exactly: the
// macro cells' kernel work per op. Each op is one deterministic run, so
// the counts do not depend on the measuring mode or the machine.
var kernelCounters = []string{"events/op", "resumes/op"}

// Regression is one gate violation.
type Regression struct {
	Name   string
	Metric string // "ns/op", "allocs/op", a kernel counter, or "missing"
	Base   float64
	Cur    float64 // normalized for ns/op
	Pct    float64 // relative increase, in percent
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: missing from this run or the baseline", r.Name)
	}
	if math.IsNaN(r.Cur) {
		return fmt.Sprintf("%s: %s not reported by this run", r.Name, r.Metric)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (+%.1f%%)", r.Name, r.Metric, r.Base, r.Cur, r.Pct)
}

// EqualAllocs gates the named benchmarks on exact allocs/op equality with
// zero slack: any increase over the baseline is a violation. This is the
// disabled-observability contract check — hot-path cells must not gain a
// single allocation per op when an instrumented build runs untraced.
// Unlike Compare, a name missing from either run is also a violation
// (reported with Metric "missing"): a silently dropped benchmark must not
// pass the gate. Decreases are fine.
func EqualAllocs(cur, base *Results, names []string) []Regression {
	var regs []Regression
	for _, name := range names {
		c, b := cur.Get(name), base.Get(name)
		if c == nil || b == nil {
			regs = append(regs, Regression{Name: name, Metric: "missing"})
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			delta := c.AllocsPerOp - b.AllocsPerOp
			pct := 100.0 * float64(delta)
			if b.AllocsPerOp > 0 {
				pct = float64(delta) / float64(b.AllocsPerOp) * 100
			}
			regs = append(regs, Regression{
				Name: name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp), Pct: pct,
			})
		}
	}
	return regs
}

// Ratchet gates cur against the best recorded run: any benchmark worse
// than best by more than noisePct percent in ns/op
// (calibration-normalized, gated only when both runs used the same
// measuring mode) or by more than allocSlack allocs/op is a regression,
// and a benchmark present in best but missing from cur is a regression
// too — a silently dropped benchmark must not pass. Between runs of
// different measuring modes the absolute alloc slack is widened by the
// relative noise band: a -short run amortizes pool warmup over far
// fewer iterations and reads a fraction of a percent above any
// full-length best on the macro cells, which is warmup arithmetic, not
// a hot-path allocation. The kernel counters (events/op, resumes/op) are
// held exactly in every mode: any increase over best, or a counter best
// has and cur lacks, is a regression. The boolean reports
// an improvement worth recording: some benchmark beat best by more than
// the noise band, dropped allocations or kernel work, or appeared fresh, which is
// cmd/bench's cue to rewrite the best file with this run. Improvements
// are only reported when the modes match — a -short run must never
// become the recorded best of a full-length trajectory. Because
// regressions fail the run before any rewrite happens, the recorded best
// can drift upward by at most the noise band while ratcheting
// monotonically down on real improvements.
func Ratchet(cur, best *Results, noisePct float64) ([]Regression, bool) {
	gateNs := cur.Short == best.Short
	speedup := 1.0 // cur-machine cycles per best-machine cycle
	if cb, bb := cur.Get(CalibName), best.Get(CalibName); cb != nil && bb != nil && bb.NsPerOp > 0 {
		speedup = cb.NsPerOp / bb.NsPerOp
	}
	var regs []Regression
	improved := false
	for i := range best.Results {
		b := &best.Results[i]
		if b.Name == CalibName {
			continue
		}
		c := cur.Get(b.Name)
		if c == nil {
			regs = append(regs, Regression{Name: b.Name, Metric: "missing"})
			continue
		}
		if gateNs && b.NsPerOp > 0 {
			norm := c.NsPerOp / speedup
			pct := (norm - b.NsPerOp) / b.NsPerOp * 100
			if pct > noisePct {
				regs = append(regs, Regression{Name: b.Name, Metric: "ns/op", Base: b.NsPerOp, Cur: norm, Pct: pct})
			}
			if pct < -noisePct {
				improved = true
			}
		}
		if delta := c.AllocsPerOp - b.AllocsPerOp; delta > allocSlack {
			pct := 100.0 * float64(delta)
			if b.AllocsPerOp > 0 {
				pct = float64(delta) / float64(b.AllocsPerOp) * 100
			}
			if gateNs || pct > noisePct {
				regs = append(regs, Regression{
					Name: b.Name, Metric: "allocs/op",
					Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp), Pct: pct,
				})
			}
		} else if c.AllocsPerOp < b.AllocsPerOp {
			improved = true
		}
		for _, unit := range kernelCounters {
			bv, ok := b.Metrics[unit]
			if !ok {
				continue
			}
			cv, ok := c.Metrics[unit]
			switch {
			case !ok:
				regs = append(regs, Regression{Name: b.Name, Metric: unit, Base: bv, Cur: math.NaN()})
			case cv > bv:
				regs = append(regs, Regression{Name: b.Name, Metric: unit, Base: bv, Cur: cv, Pct: (cv - bv) / bv * 100})
			case cv < bv:
				improved = true
			}
		}
	}
	for i := range cur.Results {
		if c := &cur.Results[i]; c.Name != CalibName && best.Get(c.Name) == nil {
			improved = true // newly curated benchmark: record it
		}
	}
	if !gateNs {
		improved = false
	}
	return regs, improved
}

// Compare reports every benchmark present in both runs whose ns/op
// (calibration-normalized) or allocs/op regressed by more than thresholdPct
// percent. Benchmarks only present on one side are ignored: adding or
// retiring benchmarks is not a regression.
//
// ns/op is only gated when the two runs used the same measuring mode: a
// -short run (~7-20 iterations on the macro cells) against a full-length
// baseline is not a timing comparison, and calibration normalizes clock
// speed, not microarchitecture. allocs/op is deterministic and is gated
// regardless — it is the signal the CI perf gate relies on when comparing
// its -short run against the committed full-length baseline.
func Compare(cur, base *Results, thresholdPct float64) []Regression {
	gateNs := cur.Short == base.Short
	speedup := 1.0 // cur-machine cycles per base-machine cycle
	if cb, bb := cur.Get(CalibName), base.Get(CalibName); cb != nil && bb != nil && bb.NsPerOp > 0 {
		speedup = cb.NsPerOp / bb.NsPerOp
	}
	var regs []Regression
	for i := range cur.Results {
		c := &cur.Results[i]
		if c.Name == CalibName {
			continue
		}
		b := base.Get(c.Name)
		if b == nil {
			continue
		}
		if gateNs && b.NsPerOp > 0 {
			norm := c.NsPerOp / speedup
			if pct := (norm - b.NsPerOp) / b.NsPerOp * 100; pct > thresholdPct {
				regs = append(regs, Regression{
					Name: c.Name, Metric: "ns/op",
					Base: b.NsPerOp, Cur: norm, Pct: pct,
				})
			}
		}
		if delta := c.AllocsPerOp - b.AllocsPerOp; delta > allocSlack {
			pct := 100.0 * float64(delta)
			if b.AllocsPerOp > 0 {
				pct = float64(delta) / float64(b.AllocsPerOp) * 100
			}
			if pct > thresholdPct {
				regs = append(regs, Regression{
					Name: c.Name, Metric: "allocs/op",
					Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp), Pct: pct,
				})
			}
		}
	}
	return regs
}
