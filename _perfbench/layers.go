package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"

	"mpichv/internal/harness"
)

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "mpichv/internal/"

// layerOfPackage maps a module package (path below modulePrefix) to the
// layer its CPU time is reported under. Packages without a layer of their
// own (cluster, harness, obs, trace) go to "other".
var layerOfPackage = map[string]string{
	"causal":           "causal",
	"causal/sparsevec": "sparsevec",
	"sim":              "sim",
	"daemon":           "daemon",
	"protocols":        "protocols",
	"netmodel":         "netmodel",
	"eventlogger":      "eventlogger",
	"checkpoint":       "checkpoint",
	"failure":          "failure",
	"faultplan":        "faultplan",
	"workload":         "workload",
	"mpi":              "workload",
	"vproto":           "vproto",
	"event":            "vproto",
}

// cpuLayers lists every CPU metric cpuByLayer reports, so a layer that
// drew no samples still reads 0.
var cpuLayers = []string{
	"causal.cpu_ms", "sparsevec.cpu_ms", "sim.cpu_ms", "daemon.cpu_ms",
	"protocols.cpu_ms", "netmodel.cpu_ms", "eventlogger.cpu_ms",
	"checkpoint.cpu_ms", "failure.cpu_ms", "faultplan.cpu_ms",
	"workload.cpu_ms", "vproto.cpu_ms", "other.cpu_ms",
	"runtime.switch_cpu_ms", "runtime.gc_cpu_ms", "runtime.other_cpu_ms",
}

// gcFramePrefixes mark a runtime sample as garbage-collector work.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scan", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.wbBuf", "runtime._GC",
}

// switchFramePrefixes mark a runtime sample as goroutine handoff: the
// channel operations and scheduler paths a simulated process switch runs.
var switchFramePrefixes = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.park_m",
	"runtime.goready", "runtime.schedule", "runtime.findRunnable",
	"runtime.selectgo", "runtime.mcall", "runtime.ready",
}

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "mpichv/internal/causal/sparsevec" for
// "mpichv/internal/causal/sparsevec.(*Vec).Set".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func hasFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// classify names the CPU metric a profile sample's self time goes to. The
// stack is leaf first. A runtime leaf is split by the stack into GC,
// goroutine handoff and other runtime work; any other leaf goes to the
// layer of the nearest module frame, so standard-library helpers count
// toward the layer that called them.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "runtime.other_cpu_ms"
	}
	if isRuntime(stack[0]) {
		switch {
		case hasFrame(stack, gcFramePrefixes):
			return "runtime.gc_cpu_ms"
		case hasFrame(stack, switchFramePrefixes):
			return "runtime.switch_cpu_ms"
		default:
			return "runtime.other_cpu_ms"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, modulePrefix) {
			continue
		}
		if layer, ok := layerOfPackage[strings.TrimPrefix(pkg, modulePrefix)]; ok {
			return layer + ".cpu_ms"
		}
		return "other.cpu_ms"
	}
	return "other.cpu_ms"
}

// cpuByLayer sums a runtime/pprof CPU profile's sample time per layer, in
// milliseconds.
func cpuByLayer(profile []byte) (map[string]float64, error) {
	stacks, cpuNs, err := decodeCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, name := range cpuLayers {
		out[name] = 0
	}
	for i, st := range stacks {
		out[classify(st)] += float64(cpuNs[i]) / 1e6
	}
	return out, nil
}

// decodeCPUProfile reads a gzipped profile.proto as runtime/pprof writes
// it and returns each sample's symbolized stack (leaf first, inlined
// frames expanded) with its CPU nanoseconds.
func decodeCPUProfile(data []byte) (stacks [][]string, cpuNs []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strTab      []string
		sampleTypes []int64 // string-table index of each value's type
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string-table index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return eachVarint(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strTab = append(strTab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strTab) {
			return ""
		}
		return strTab[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, nil, errors.New("cpu profile: no cpu sample type")
	}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, nil, errors.New("cpu profile: sample without cpu value")
		}
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				st = append(st, str(funcNames[fid]))
			}
		}
		stacks = append(stacks, st)
		cpuNs = append(cpuNs, s.values[cpuIdx])
	}
	return stacks, cpuNs, nil
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (data != nil)
// or not.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// runtimeCounters are cumulative runtime/metrics counters.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles float64
}

func readRuntimeMetrics() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
	}
}

// clusterSetupCalls are the per-cell calls before the simulation runs.
var clusterSetupCalls = map[string]bool{
	"workload.Build": true, "cluster.New": true, "cluster.PrepareRun": true,
	"failure.ScheduleFault": true, "failure.PeriodicFaults": true, "failure.Launch": true,
}

// addSpanMetrics derives the harness and cluster timings from the spans.
func addSpanMetrics(out map[string]float64, spans []span, workers int, wallS float64) {
	var cellMs []float64
	var setupNs, runNs int64
	for _, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Name == "cell":
			cellMs = append(cellMs, float64(d)/1e6)
		case s.Name == "sim.RunUntil":
			runNs += d
		case clusterSetupCalls[s.Name]:
			setupNs += d
		}
	}
	var sumMs float64
	for _, ms := range cellMs {
		sumMs += ms
	}
	t := tail(cellMs, tailBeyond)
	out["harness.cell_ms_p50"] = median(cellMs)
	out["harness.cell_ms_tail"] = t.value
	out["harness.cell_tail_pct"] = t.pct
	out["harness.cells_beyond_tail"] = float64(t.beyond)
	out["harness.worker_idle_frac"] = idleFrac(sumMs/1e3, workers, wallS)
	out["cluster.setup_ms"] = float64(setupNs) / 1e6
	out["cluster.run_ms"] = float64(runNs) / 1e6
}

// addWorkCounts sums the simulated work of every cell. These counts are
// exact: a change that only alters speed leaves them identical.
func addWorkCounts(out map[string]float64, all []*harness.Results, counts []cellCounts) {
	var msgs, bytes, pbEvents, pbBytes, ckpts, ckptBytes, recoveries, stored, kills, live int64
	var maxHeld, maxQueue int
	var virtualS float64
	for _, res := range all {
		for i := range res.Cells {
			st := &res.Cells[i].Stats
			msgs += st.AppMsgsSent + st.ControlMsgs
			bytes += st.AppBytesSent + st.PiggybackBytes + st.HeaderBytes + st.ControlBytes
			pbEvents += st.PiggybackEvents
			pbBytes += st.PiggybackBytes
			maxHeld = max(maxHeld, st.MaxHeldDeterminants)
			ckpts += int64(st.Checkpoints)
			ckptBytes += st.CheckpointBytes
			recoveries += int64(st.Recoveries)
			virtualS += res.Cells[i].Elapsed.Seconds()
		}
	}
	for _, c := range counts {
		stored += c.elStored
		maxQueue = max(maxQueue, c.elQueue)
		kills += c.kills
		live += int64(c.liveProcs)
	}
	out["netmodel.msgs"] = float64(msgs)
	out["netmodel.bytes"] = float64(bytes)
	out["causal.piggyback_events"] = float64(pbEvents)
	out["causal.piggyback_bytes"] = float64(pbBytes)
	out["causal.max_held_dets"] = float64(maxHeld)
	out["eventlogger.events_stored"] = float64(stored)
	out["eventlogger.max_queue"] = float64(maxQueue)
	out["checkpoint.images"] = float64(ckpts)
	out["checkpoint.bytes"] = float64(ckptBytes)
	out["failure.recoveries"] = float64(recoveries)
	out["faultplan.kills"] = float64(kills)
	out["sim.virtual_s"] = virtualS
	out["sim.live_procs_at_end"] = float64(live)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tailStat is a tail percentile with the count of samples above it.
type tailStat struct {
	value  float64
	pct    float64 // nearest-rank percentile of value
	beyond int     // samples ranked above value
}

// tail returns the highest nearest-rank percentile of xs that leaves at
// least minBeyond samples beyond it. With too few samples for that, it
// returns the maximum, whose beyond count (below minBeyond) says so.
func tail(xs []float64, minBeyond int) tailStat {
	if len(xs) == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := n - 1 - minBeyond
	if k < 0 {
		k = n - 1
	}
	return tailStat{value: s[k], pct: 100 * float64(k+1) / float64(n), beyond: n - 1 - k}
}

// idleFrac is the share of worker capacity not spent inside a cell:
// 1 - busy / (workers * wall).
func idleFrac(busyS float64, workers int, wallS float64) float64 {
	if workers <= 0 || wallS <= 0 {
		return 0
	}
	return 1 - busyS/(float64(workers)*wallS)
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
