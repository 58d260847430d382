// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// (time, sequence) order. Simulated processes are coroutines (iter.Pull):
// the kernel resumes one from an event and it yields back when it blocks,
// so at any instant exactly one activity (the kernel loop or a single
// process) runs, and executions are fully deterministic and free of data
// races by construction. Kernel.Close releases whatever is still
// unfinished when a run ends.
//
// The kernel knows nothing about networks or MPI; higher layers
// (internal/netmodel, internal/daemon, ...) are built on the three
// primitives exported here: scheduled events, blocking processes, and
// mailboxes.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time (a difference of two
// instants), mirroring how time.Duration relates to time.Time but without
// pulling wall-clock semantics into the simulator.
type Time int64

// Convenient duration units, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds reports t as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of virtual milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of virtual microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the instant with an adaptive unit, e.g. "152.3µs" or "2.5s".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gµs", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}
