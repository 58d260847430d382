package bench

import (
	"runtime"
	"testing"

	"mpichv/internal/causal"
	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/netmodel"
	"mpichv/internal/protocols"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
	"mpichv/internal/workload"
)

// Suite returns the curated benchmark set: name → body. Micro benchmarks
// cover the allocation-free hot path layer by layer (kernel event queue,
// process scheduling, mailboxes, wire sends, the three piggyback reducers,
// the determinant codecs); macro benchmarks run one full simulation cell
// per protocol stack plus a small Figure-7-style sweep through the
// harness. The calibration spin (CalibName) anchors cross-machine ns/op
// normalization.
func Suite() map[string]func(b *testing.B) {
	return map[string]func(b *testing.B){
		CalibName:             benchCalibSpin,
		"kernel/schedule-pop": benchKernelSchedulePop,
		"kernel/proc-sleep":   benchProcSleep,
		"sim/mailbox":         benchMailbox,
		"net/send":            benchNetSend,
		"reducer/vcausal":     reducerBench("vcausal"),
		"reducer/manetho":     reducerBench("manetho"),
		"reducer/logon":       reducerBench("logon"),
		// The -np256 variants run the same steady-state cycle in a 256-rank
		// world with 15 active creators: cost must track the active set, not
		// the world size (interval-coded sparse state).
		"reducer/vcausal-np256": reducerBenchAt("vcausal", 256, 15),
		"reducer/manetho-np256": reducerBenchAt("manetho", 256, 15),
		"reducer/logon-np256":   reducerBenchAt("logon", 256, 15),
		"vproto/enc-factored":   benchEncodeFactored,
		"vproto/enc-flat":       benchEncodeFlat,
		"daemon/replay-serve":   benchReplayServe,
		"cell/vdummy":           cellBench(cgA4, cluster.Config{NP: 4, Stack: cluster.StackVdummy}),
		"cell/pessimistic":      cellBench(cgA4, cluster.Config{NP: 4, Stack: cluster.StackPessimistic}),
		"cell/vcausal-el":       cellBench(cgA4, cluster.Config{NP: 4, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}),
		// NP scaling gates: both cells run the same total message volume
		// (iterations scale inversely with NP), so allocs/op at NP 64 must
		// stay within 2x of NP 16 — world size must not leak into the
		// per-message allocation profile (sparse causality state).
		"cell/vcausal-el-np16": cellBench(workload.Spec{Bench: "cg", Class: "A", NP: 16, IterScale: 4}, cluster.Config{NP: 16, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}),
		"cell/vcausal-el-np64": cellBench(workload.Spec{Bench: "cg", Class: "A", NP: 64}, cluster.Config{NP: 64, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}),
		"cell/coordinated":     cellBench(cgA4, cluster.Config{NP: 4, Stack: cluster.StackCoordinated}),
		"cell/storm-recovery":  cellBench(cgA4, stormRecoveryCell),
		// BT computes in long phases between exchanges: the cell where
		// polling sleeps skip most of their empty checks.
		"cell/bt-compute": cellBench(workload.Spec{Bench: "bt", Class: "A", NP: 9},
			cluster.Config{NP: 9, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}),
		"sweep/fig7-small": benchSweepFig7Small,
	}
}

// benchCalibSpin is a fixed integer workload; its ns/op measures host CPU
// speed and nothing else.
func benchCalibSpin(b *testing.B) {
	acc := uint64(1)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
	if acc == 0 {
		b.Fatal("unreachable")
	}
}

// benchKernelSchedulePop measures one schedule+execute cycle of the
// discrete-event core (the per-action cost of every simulated layer).
func benchKernelSchedulePop(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	var t sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 10
		k.At(t, nop)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// benchProcSleep measures the park/unpark handshake: one timer event plus
// two coroutine switches per operation, the unit cost of ChargeCPU.
func benchProcSleep(b *testing.B) {
	k := sim.NewKernel(1)
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	k.Run()
}

// benchMailbox measures a blocking producer/consumer cycle through one
// mailbox — the daemon inbox path.
func benchMailbox(b *testing.B) {
	k := sim.NewKernel(1)
	mb := sim.NewMailbox[int](k)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			mb.Put(i)
			p.Yield()
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			mb.Get(p)
		}
	})
	b.ResetTimer()
	k.Run()
}

// benchNetSend measures one wire transmission end to end (occupancy
// accounting, delivery event, handler dispatch).
func benchNetSend(b *testing.B) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(1).SetHandler(func(netmodel.Delivery) {})
	tx := net.Endpoint(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(1, 1024, nil)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// reducerBench measures the steady-state piggyback cycle of one causal
// reducer exactly as the daemon drives it: merge-free AddLocal, then an
// emission into a recycled buffer.
func reducerBench(name string) func(b *testing.B) {
	return reducerBenchAt(name, 16, 15)
}

// reducerBenchAt is reducerBench in a world of np ranks with the given
// number of active creators (ranks 1..active); the remaining ranks never
// appear, so a sparse reducer's per-op cost must not grow with np.
func reducerBenchAt(name string, np, active int) func(b *testing.B) {
	return func(b *testing.B) {
		r := causal.New(name, 0, np)
		// Pre-populate with a realistic held set.
		for c := 1; c <= active; c++ {
			var ds []event.Determinant
			for k := uint64(1); k <= 64; k++ {
				ds = append(ds, event.Determinant{
					ID:      event.EventID{Creator: event.Rank(c), Clock: k},
					Sender:  event.Rank((c + 1) % np),
					SendSeq: k, Lamport: k,
				})
			}
			r.Merge(event.Rank(c), ds)
		}
		clock := uint64(0)
		var buf []event.Determinant
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock++
			r.AddLocal(event.Determinant{
				ID:     event.EventID{Creator: 0, Clock: clock},
				Sender: 1, SendSeq: clock, Lamport: clock,
			})
			buf, _ = r.AppendPiggybackFor(event.Rank(1+i%active), buf[:0])
			_ = r.PiggybackBytes(buf)
		}
	}
}

// codecSet builds a representative 64-determinant piggyback (4 creator
// chains of 16) for the codec benchmarks.
func codecSet() []event.Determinant {
	var ds []event.Determinant
	for c := event.Rank(1); c <= 4; c++ {
		for k := uint64(1); k <= 16; k++ {
			ds = append(ds, event.Determinant{
				ID:      event.EventID{Creator: c, Clock: k},
				Sender:  c + 1,
				SendSeq: k,
				Parent:  event.EventID{Creator: c + 1, Clock: k},
				Lamport: 2 * k,
			})
		}
	}
	return ds
}

func benchEncodeFactored(b *testing.B) {
	ds := codecSet()
	buf := make([]byte, 0, event.FactoredSize(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.AppendFactored(buf[:0], ds)
	}
	_ = buf
}

func benchEncodeFlat(b *testing.B) {
	ds := codecSet()
	buf := make([]byte, 0, event.FlatSize(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.AppendFlat(buf[:0], ds)
	}
	_ = buf
}

// benchReplayServe measures one full sender-log replay service: a peer's
// recovery requests the 64-payload replay set and the serving daemon
// re-transmits it. This is the recovery-path hot spot the batched replay
// chain targets — the sequential path paid one blocking sleep (a kernel
// timer plus two process switches) per logged payload; the chain pays
// one park for the whole set.
func benchReplayServe(b *testing.B) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	n := daemon.NewNode(k, net, 0, 2, daemon.Vdaemon(), daemon.DefaultCalibration(),
		protocols.NewVcausal("vcausal", 0, 2, false))
	const entries = 64
	for s := 1; s <= entries; s++ {
		n.Log.Append(vproto.Message{Src: 0, Dst: 1, Tag: 1, Bytes: 1024, SendSeq: uint64(s)})
	}
	var packets vproto.PacketPool
	k.Spawn("server", func(p *sim.Proc) {
		n.Bind(p)
		for {
			n.WaitPacket()
		}
	})
	request := func() {
		req := packets.GetPacket()
		req.Kind = vproto.PktDetRequest
		req.From = 1
		req.Creator = 1
		net.Endpoint(1).Send(0, 32, req)
	}
	remaining := b.N
	got := 0
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktApp {
			got++
			if got == entries {
				got = 0
				remaining--
				if remaining == 0 {
					k.Stop()
				} else {
					request()
				}
			}
		}
		vproto.PutPacket(pkt)
	})
	b.ResetTimer()
	k.At(0, func() { request() })
	k.Run()
	b.StopTimer()
	k.Close() // the server loop is still parked
}

// cgA4 is the workload of the NP-4 macro cells.
var cgA4 = workload.Spec{Bench: "cg", Class: "A", NP: 4}

// cellBench runs one complete simulation of spec per iteration on the given
// deployment — the macro cost of a sweep cell on that protocol stack. Each
// run builds its own packet pools, so a run allocates the same objects as
// a harness cell does. One untimed warmup run fills lazy globals first:
// these cells feed the zero-slack allocs/op equality gate, and a one-time
// fill amortized over the iteration count would otherwise flip the
// reported per-op allocs by ±1 between runs. The measurement is pinned to
// one P, and the exact count relies on that pin, not on the code: every
// spawned process is a coroutine goroutine whose runtime record is
// recycled through per-P free lists, so with a second P a migration
// mid-run can strand recycled records and cost fresh allocations (harness
// cells run unpinned and see that jitter). Besides allocations, each cell
// reports the kernel's work per run: events executed (events/op) and
// process coroutine resumptions (resumes/op), both exact.
func cellBench(spec workload.Spec, cfg cluster.Config) func(b *testing.B) {
	return func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var events, resumes uint64
		runCell := func() {
			in := workload.Build(spec)
			c := cluster.New(cfg)
			c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
			events += c.K.Events()
			resumes += c.K.Resumes()
		}
		runCell()
		events, resumes = 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCell()
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
		b.ReportMetric(float64(resumes)/float64(b.N), "resumes/op")
	}
}

// stormRecoveryCell is one CG.A.4 cell run through two correlated
// multi-rank kills — four overlapping recoveries per iteration. It is the
// macro benchmark of the recovery path: checkpoint restores, determinant
// collection across concurrently restarting peers, replay-set assembly and
// sender-log replay service (SenderLog.For), the paths the
// recovery-allocation work targets.
var stormRecoveryCell = cluster.Config{
	NP: 4, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true,
	CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 20 * sim.Millisecond,
	RestartDelay:  20 * sim.Millisecond,
	AppStateBytes: 256 << 10,
	Faults: &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{
			{At: 100 * sim.Millisecond, Ranks: []int{0, 1}},
			{At: 400 * sim.Millisecond, Ranks: []int{2, 3}},
		},
	},
}

// benchSweepFig7Small runs a 2×3 Figure-7-style piggyback sweep (two NAS
// workloads, the three reducers without Event Logger) through the parallel
// harness per iteration.
func benchSweepFig7Small(b *testing.B) {
	spec := &harness.SweepSpec{
		Name: "bench-fig7-small",
		Workloads: []harness.Workload{
			{Key: "cg.A.2", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 2}},
			{Key: "lu.A.2", Spec: workload.Spec{Bench: "lu", Class: "A", NP: 2}},
		},
		Stacks: []harness.Stack{
			{Key: "vcausal", Stack: cluster.StackVcausal, Reducer: "vcausal"},
			{Key: "manetho", Stack: cluster.StackVcausal, Reducer: "manetho"},
			{Key: "logon", Stack: cluster.StackVcausal, Reducer: "logon"},
		},
	}
	for i := 0; i < b.N; i++ {
		res := harness.Run(spec, harness.Options{Parallel: 2})
		for j := range res.Cells {
			if res.Cells[j].Err != "" || !res.Cells[j].Completed {
				b.Fatalf("cell %q failed: %s", res.Cells[j].ID, res.Cells[j].Err)
			}
		}
	}
}
