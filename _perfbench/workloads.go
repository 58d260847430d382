package main

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// A benchWorkload is one seeded input set. Its sweeps run in order; a later
// sweep may depend on an earlier one's results (fault-storm derives its
// divergence caps from the fault-free baselines), so sweeps are produced
// one at a time from the results gathered so far.
type benchWorkload struct {
	name string
	// phases is the number of sweeps the workload runs.
	phases int
	// sweep builds phase i's spec from the seed and the results of the
	// earlier phases.
	sweep func(seed int64, phase int, prev []*harness.Results) *harness.SweepSpec
	// expected lists the outcomes a correct cell may end in, by variant
	// key; "" applies to variants not listed.
	expected map[string][]cluster.Outcome
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []benchWorkload{
	{
		// Figure 7: the paper's central measurement. Fault-free, so the
		// recovery path stays cold; NP <= 16 keeps sparsevec dense.
		name: "piggyback-sweep", phases: 1,
		sweep:    piggybackSweep,
		expected: completes,
	},
	{
		// The recovery path: checkpoints, determinant collection, replay,
		// fault plans and the non-causal baselines.
		name: "fault-storm", phases: 2,
		sweep:    faultStormSweep,
		expected: completes,
	},
	{
		// Open-loop request/response service cut at a horizon, with
		// partitions and fencing.
		name: "service-horizon", phases: 1,
		sweep: serviceSweep,
		// A service run drains before its horizon unless faults delay it
		// past the cut; the partition's false suspicion is survived.
		expected: map[string][]cluster.Outcome{
			"":          {cluster.OutcomeCompleted, cluster.OutcomeHorizon},
			"partition": {cluster.OutcomeFalseSuspicion},
		},
	},
	{
		// The only world large enough to keep sparsevec interval-coded.
		name: "np64-sparse", phases: 1,
		sweep:    np64Sweep,
		expected: completes,
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

var completes = map[string][]cluster.Outcome{"": {cluster.OutcomeCompleted}}

// expectedFor returns the outcomes a cell of the given variant may end in.
func (w *benchWorkload) expectedFor(variant string) []cluster.Outcome {
	if e, ok := w.expected[variant]; ok {
		return e
	}
	return w.expected[""]
}

func (w *benchWorkload) expects(variant string, o cluster.Outcome) bool {
	for _, e := range w.expectedFor(variant) {
		if e == o {
			return true
		}
	}
	return false
}

// stack builds a harness stack keyed by its label.
func stack(label, name, reducer string, el bool) harness.Stack {
	return harness.Stack{Key: label, Label: label, Stack: name, Reducer: reducer, UseEL: el}
}

var elReducers = []harness.Stack{
	stack("Vcausal (EL)", cluster.StackVcausal, "vcausal", true),
	stack("Manetho (EL)", cluster.StackVcausal, "manetho", true),
	stack("LogOn (EL)", cluster.StackVcausal, "logon", true),
}

var causalStacks = append(append([]harness.Stack(nil), elReducers...),
	stack("Vcausal (no EL)", cluster.StackVcausal, "vcausal", false),
	stack("Manetho (no EL)", cluster.StackVcausal, "manetho", false),
	stack("LogOn (no EL)", cluster.StackVcausal, "logon", false),
)

func nas(specs ...workload.Spec) []harness.Workload {
	out := make([]harness.Workload, len(specs))
	for i, s := range specs {
		out[i] = harness.Workload{Key: s.String(), Spec: s}
	}
	return out
}

// piggybackSweep is the Figure 7 grid: BT/CG/LU class A at NP 2-16 across
// the six causal stacks, 66 cells.
func piggybackSweep(seed int64, _ int, _ []*harness.Results) *harness.SweepSpec {
	a := func(bench string, np int) workload.Spec { return workload.Spec{Bench: bench, Class: "A", NP: np} }
	return &harness.SweepSpec{
		Name: "piggyback-sweep",
		Workloads: nas(
			a("bt", 4), a("bt", 9), a("bt", 16),
			a("cg", 2), a("cg", 4), a("cg", 8), a("cg", 16),
			a("lu", 2), a("lu", 4), a("lu", 8), a("lu", 16),
		),
		Stacks:   causalStacks,
		BaseSeed: seed,
	}
}

// Fault-storm settings, as in the ext-faultstorm experiment.
const (
	stormRestart    = 250 * sim.Millisecond
	stormDivergence = 8
	stormCkptPeriod = 10 * sim.Second
)

var stormStacks = append(append([]harness.Stack(nil), elReducers...),
	stack("Pessimistic (EL)", cluster.StackPessimistic, "", true),
	stack("Coordinated (C/L)", cluster.StackCoordinated, "", false),
)

// stormScenarios are the five fault environments. Plans are read-only and
// shared; each cell samples them with its own derived seed, so the
// benchmark seed changes every random draw.
var stormScenarios = []harness.Variant{
	{Key: "poisson-storm", Faults: &faultplan.Plan{
		Storms: []faultplan.Storm{{Poisson: true, MeanInterval: 8 * sim.Second, Victims: faultplan.VictimRandom}},
	}},
	{Key: "correlated", Faults: &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{
			{At: 12 * sim.Second, Ranks: []int{0, 1, 2}},
			{At: 30 * sim.Second, Ranks: []int{3, 4}},
		},
	}},
	{Key: "cascade", Faults: &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
		Cascades: []faultplan.Cascade{{
			Trigger: faultplan.OnRecovered, Delay: 100 * sim.Millisecond,
			Probability: 0.6, MaxFires: 4,
		}},
	}},
	{Key: "recovery-overlap", Faults: &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
		Cascades: []faultplan.Cascade{
			{
				Trigger: faultplan.OnKill, OfRank: faultplan.OnlyRank(0), Delay: stormRestart / 2,
				Victims: faultplan.VictimFixed, Rank: 0, MaxFires: 1,
			},
			{
				Trigger: faultplan.OnRestart, OfRank: faultplan.OnlyRank(0), Delay: sim.Millisecond,
				Victims: faultplan.VictimFixed, Rank: 1, MaxFires: 2,
			},
		},
	}},
	{Key: "storm-outage", Faults: &faultplan.Plan{
		Storms: []faultplan.Storm{{Poisson: true, MeanInterval: 12 * sim.Second, Victims: faultplan.VictimRoundRobin}},
		Outages: []faultplan.Outage{
			{Target: faultplan.OutageEventLogger, At: 15 * sim.Second, Duration: 2 * sim.Second},
			{Target: faultplan.OutageCkptServer, At: 25 * sim.Second, Duration: 2 * sim.Second},
		},
	}},
}

// faultStormSweep is the ext-faultstorm grid: phase 0 runs each stack
// fault-free, phase 1 the five scenarios with each cell capped at
// stormDivergence times its stack's fault-free time. 5 + 25 cells.
func faultStormSweep(seed int64, phase int, prev []*harness.Results) *harness.SweepSpec {
	wl := harness.Workload{
		Key:           "bt.A.9x4",
		Spec:          workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4},
		AppStateBytes: 1 << 20,
	}
	spec := &harness.SweepSpec{
		Name:       "fault-storm-baseline",
		Workloads:  []harness.Workload{wl},
		Stacks:     stormStacks,
		Variants:   []harness.Variant{{Key: "fault-free"}},
		BaseSeed:   seed,
		MaxVirtual: 100 * sim.Minute,
	}
	var baseline map[string]sim.Time
	if phase == 1 {
		spec.Name = "fault-storm"
		spec.Variants = stormScenarios
		baseline = make(map[string]sim.Time, len(stormStacks))
		for _, cr := range prev[0].Cells {
			baseline[cr.Stack] = cr.Elapsed
		}
	}
	spec.Tune = func(c *harness.Cell) {
		c.Config.CkptPolicy = checkpoint.PolicyRoundRobin
		c.Config.CkptInterval = stormCkptPeriod / sim.Time(c.Config.NP)
		if c.Stack.Stack == cluster.StackCoordinated {
			c.Config.CkptPolicy = checkpoint.PolicyCoordinated
			c.Config.CkptInterval = stormCkptPeriod
		}
		c.Config.RestartDelay = stormRestart
		if baseline != nil {
			c.MaxVirtual = baseline[c.Stack.Key] * stormDivergence
		}
	}
	return spec
}

// Service-horizon settings: the ext-service deployment at NP 9, shortened
// to a two-minute arrival window inside a three-minute horizon.
const (
	serviceNP      = 9
	serviceWindow  = 2 * sim.Minute
	serviceHorizon = 3 * sim.Minute
)

// serviceSweep runs the open-loop service on the three EL reducers,
// fault-free, under a rolling kill storm, and behind a partition that
// falsely suspects a live rank. 9 cells.
func serviceSweep(seed int64, _ int, _ []*harness.Results) *harness.SweepSpec {
	key := fmt.Sprintf("service.%d", serviceNP)
	sc := workload.ServiceConfig{
		NP:            serviceNP,
		Seed:          harness.DeriveSeed(seed, key),
		RatePerRank:   2,
		Window:        serviceWindow,
		ServiceTime:   5 * sim.Millisecond,
		ReqBytes:      2 << 10,
		RespBytes:     8 << 10,
		AppStateBytes: 128 << 10,
	}
	rest := make([]int, 0, serviceNP-1)
	for r := 1; r < serviceNP; r++ {
		rest = append(rest, r)
	}
	variants := []harness.Variant{
		{Key: "fault-free"},
		{Key: "storm", RestartDelay: 2 * sim.Second, Faults: &faultplan.Plan{
			Storms: []faultplan.Storm{{
				MinInterval: 20 * sim.Second, MaxInterval: 40 * sim.Second,
				Victims: faultplan.VictimRoundRobin, MaxKills: 16,
			}},
		}},
		{Key: "partition", Faults: &faultplan.Plan{
			Partitions: []faultplan.Partition{{
				At: serviceWindow / 2, Groups: [][]int{{0}, rest},
				Duration: 800 * sim.Millisecond, SuspectAfter: 400 * sim.Millisecond,
			}},
		}},
	}
	for i := range variants {
		variants[i].Horizon = serviceHorizon
	}
	return &harness.SweepSpec{
		Name: "service-horizon",
		Workloads: []harness.Workload{{
			Key:  key,
			Make: func() *workload.Instance { return workload.BuildService(sc) },
		}},
		Stacks:   elReducers,
		Variants: variants,
		BaseSeed: seed,
		Tune: func(c *harness.Cell) {
			c.Config.CkptPolicy = checkpoint.PolicyRoundRobin
			c.Config.CkptInterval = 5 * sim.Second
		},
	}
}

// np64IterScale lengthens CG.A.64 so each cell runs for seconds.
const np64IterScale = 4

// np64Sweep is the ext-np64-smoke grid lengthened: CG.A.64 across the
// three EL reducers. 3 cells.
func np64Sweep(seed int64, _ int, _ []*harness.Results) *harness.SweepSpec {
	return &harness.SweepSpec{
		Name:      "np64-sparse",
		Workloads: nas(workload.Spec{Bench: "cg", Class: "A", NP: 64, IterScale: np64IterScale}),
		Stacks:    elReducers,
		BaseSeed:  seed,
	}
}
