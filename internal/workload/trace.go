// Package workload provides demand traces and synthetic trace
// generators. It is the reproduction's substitute for the production
// enterprise utilization traces the paper's evaluation is driven by:
// the policies' behaviour depends on trough depth, spike steepness and
// diurnal period, which are all first-class generator parameters here.
//
// A trace is a step function of CPU demand (in cores) sampled at a
// fixed interval. Demand is what the VM *wants*; what it receives is
// decided by the host scheduler in internal/host.
package workload

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Never is the NextChange result for a trace whose value never
// changes: no re-evaluation is ever required on its account.
const Never = time.Duration(math.MaxInt64)

// Trace is a fixed-interval step function of CPU demand in cores.
type Trace struct {
	// Interval is the sampling period.
	Interval time.Duration
	// Samples holds the demand (cores) for each interval. The trace
	// repeats cyclically after the last sample, so a 24-hour trace
	// drives simulations of any length.
	Samples []float64

	// nextEdge[i] is the absolute sample position in (i, i+len] of the
	// first sample whose value differs from Samples[i], walking
	// cyclically; nil means the trace is constant. Built lazily under
	// nextOnce, because traces are shared read-only across concurrently
	// running simulations, and only once NextChange
	// meets a sample equal to the next one: a trace whose every sample
	// differs from the next never needs it.
	nextOnce sync.Once
	nextEdge []int32
}

// NewTrace validates and wraps samples.
func NewTrace(interval time.Duration, samples []float64) (*Trace, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("workload: non-positive interval %v", interval)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	for i, s := range samples {
		if s < 0 {
			return nil, fmt.Errorf("workload: negative demand %v at sample %d", s, i)
		}
	}
	return &Trace{Interval: interval, Samples: samples}, nil
}

// Constant returns a trace that always demands d cores.
func Constant(d float64) *Trace {
	return &Trace{Interval: time.Minute, Samples: []float64{d}}
}

// Duration is the length of one cycle of the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Samples)) * t.Interval
}

// At returns the demand at virtual time at, wrapping cyclically.
func (t *Trace) At(at time.Duration) float64 {
	if at < 0 {
		at = 0
	}
	idx := int(at/t.Interval) % len(t.Samples)
	return t.Samples[idx]
}

// NextChange returns the earliest time strictly after at when the
// trace's value differs from its value at at, or Never for a constant
// trace. The evaluation tick and the manager's forecast upkeep look it
// up (through the cluster's demand memo) to skip hosts and VMs whose
// demand cannot have moved: equal consecutive samples are not changes,
// so a batch trace that idles for hours reports the next run start,
// not the next sample boundary. When the next sample differs, that is
// the answer, and the jump table is neither built nor read.
func (t *Trace) NextChange(at time.Duration) time.Duration {
	return t.NextChangeFrom(t.Sample(at))
}

// Sample returns the index into Samples of the sample at falls in and
// the instant that sample starts; a negative time reads as 0, as in At.
// A caller that needs the value, the sample's span and the next change
// divides at once.
func (t *Trace) Sample(at time.Duration) (int, time.Duration) {
	if at < 0 {
		at = 0
	}
	k := at / t.Interval
	return int(k % time.Duration(len(t.Samples))), k * t.Interval
}

// NextChangeFrom is NextChange for an instant in sample idx, which
// starts at start (see Sample).
func (t *Trace) NextChangeFrom(idx int, start time.Duration) time.Duration {
	next := idx + 1
	if next == len(t.Samples) {
		next = 0
	}
	if t.Samples[next] != t.Samples[idx] {
		return start + t.Interval
	}
	t.nextOnce.Do(t.buildNextEdge)
	if t.nextEdge == nil {
		return Never
	}
	return start + time.Duration(int(t.nextEdge[idx])-idx)*t.Interval
}

// buildNextEdge fills the cyclic jump table consulted by NextChange.
func (t *Trace) buildNextEdge() {
	n := len(t.Samples)
	// Edge positions: j such that Samples[j] != Samples[j-1] (cyclic).
	first := -1 // smallest edge position
	for j := 0; j < n; j++ {
		prev := t.Samples[(j+n-1)%n]
		if t.Samples[j] != prev {
			first = j
			break
		}
	}
	if first == -1 {
		return // constant: nextEdge stays nil
	}
	edges := make([]int32, n)
	// For i >= last the next edge wraps to first in the following cycle.
	next := int32(first + n)
	for i := n - 1; i >= 0; i-- {
		edges[i] = next
		if i > 0 && t.Samples[i] != t.Samples[i-1] {
			next = int32(i)
		}
	}
	t.nextEdge = edges
}

// Peak returns the maximum demand in the trace.
func (t *Trace) Peak() float64 {
	max := 0.0
	for _, s := range t.Samples {
		if s > max {
			max = s
		}
	}
	return max
}

// Mean returns the average demand over one cycle.
func (t *Trace) Mean() float64 {
	sum := 0.0
	for _, s := range t.Samples {
		sum += s
	}
	return sum / float64(len(t.Samples))
}

// Scale returns a copy with every sample multiplied by f (f ≥ 0).
func (t *Trace) Scale(f float64) *Trace {
	if f < 0 {
		f = 0
	}
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s * f
	}
	return &Trace{Interval: t.Interval, Samples: out}
}

// Clamp returns a copy with every sample limited to at most max.
func (t *Trace) Clamp(max float64) *Trace {
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		if s > max {
			s = max
		}
		out[i] = s
	}
	return &Trace{Interval: t.Interval, Samples: out}
}

// Add returns the pointwise sum of two traces with the same interval,
// wrapping the shorter one cyclically to the length of the longer.
func Add(a, b *Trace) (*Trace, error) {
	if a.Interval != b.Interval {
		return nil, fmt.Errorf("workload: interval mismatch %v vs %v", a.Interval, b.Interval)
	}
	n := len(a.Samples)
	if len(b.Samples) > n {
		n = len(b.Samples)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Samples[i%len(a.Samples)] + b.Samples[i%len(b.Samples)]
	}
	return &Trace{Interval: a.Interval, Samples: out}, nil
}
