// Package core implements the paper's primary contribution: an
// end-to-end power-aware virtualization manager. It periodically
// forecasts VM demand, consolidates VMs onto the fewest hosts that can
// serve the forecast with headroom (via live migration), parks the
// emptied hosts in a low-latency sleep state, and wakes them back on
// demand. Baseline policies (plain load-balancing DRM, traditional
// S5-based power management, static provisioning) are expressed in the
// same framework so the paper's comparisons are apples-to-apples.
package core

import (
	"fmt"
	"time"
)

// Forecaster predicts a VM's near-future CPU demand from its observed
// samples. The manager keeps one per VM.
type Forecaster interface {
	// Observe feeds one demand sample.
	Observe(at time.Duration, demand float64)
	// Forecast returns the predicted demand for the next control
	// period.
	Forecast() float64
}

// ForecastKind selects a forecaster implementation.
type ForecastKind int

const (
	// ForecastDefault (the zero value) selects the package default,
	// currently the peak-window forecaster.
	ForecastDefault ForecastKind = iota
	// ForecastLastValue predicts the most recent observation. Cheap
	// and agile, but blind to noise.
	ForecastLastValue
	// ForecastEWMA predicts an exponentially weighted moving average.
	ForecastEWMA
	// ForecastPeakWindow predicts the maximum over a sliding window —
	// the conservative choice that absorbs short spikes, which the
	// paper's manager needs when wake-up latency is high.
	ForecastPeakWindow
)

// String names the kind.
func (k ForecastKind) String() string {
	switch k {
	case ForecastDefault:
		return "default"
	case ForecastLastValue:
		return "last-value"
	case ForecastEWMA:
		return "ewma"
	case ForecastPeakWindow:
		return "peak-window"
	default:
		return "forecast?"
	}
}

// ForecastSpec configures forecaster construction.
type ForecastSpec struct {
	Kind ForecastKind
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.3).
	Alpha float64
	// Window is the peak-window length (default 15 minutes).
	Window time.Duration
}

// New builds a forecaster from the spec.
func (s ForecastSpec) New() (Forecaster, error) {
	switch s.Kind {
	case ForecastDefault, ForecastPeakWindow:
		w := s.Window
		if w == 0 {
			w = 15 * time.Minute
		}
		if w < 0 {
			return nil, fmt.Errorf("core: negative peak window %v", w)
		}
		f := &peakWindow{window: w}
		f.samples = f.first[:0]
		return f, nil
	case ForecastLastValue:
		return &lastValue{}, nil
	case ForecastEWMA:
		alpha := s.Alpha
		if alpha == 0 {
			alpha = 0.3
		}
		if alpha <= 0 || alpha > 1 {
			return nil, fmt.Errorf("core: ewma alpha %v outside (0,1]", alpha)
		}
		return &ewma{alpha: alpha}, nil
	default:
		return nil, fmt.Errorf("core: unknown forecast kind %d", s.Kind)
	}
}

type lastValue struct {
	last float64
}

func (f *lastValue) Observe(_ time.Duration, d float64) { f.last = d }
func (f *lastValue) Forecast() float64                  { return f.last }

type ewma struct {
	alpha  float64
	value  float64
	primed bool
}

func (f *ewma) Observe(_ time.Duration, d float64) {
	if !f.primed {
		f.value = d
		f.primed = true
		return
	}
	f.value = f.alpha*d + (1-f.alpha)*f.value
}

func (f *ewma) Forecast() float64 { return f.value }

type sample struct {
	at time.Duration
	v  float64
}

type peakWindow struct {
	window  time.Duration
	samples []sample // monotonic deque: decreasing values
	// first backs the deque until it outgrows it: most deques stay one
	// or two samples deep, and then cost no allocation of their own.
	first [2]sample
}

func (f *peakWindow) Observe(at time.Duration, d float64) {
	// Drop samples that fell out of the window, compacting the live
	// ones to the front: re-slicing forward would shrink the capacity
	// until an append reallocates.
	cut := 0
	for cut < len(f.samples) && f.samples[cut].at+f.window < at {
		cut++
	}
	if cut > 0 {
		f.samples = f.samples[:copy(f.samples, f.samples[cut:])]
	}
	// Maintain the decreasing-max deque invariant.
	for len(f.samples) > 0 && f.samples[len(f.samples)-1].v <= d {
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, sample{at: at, v: d})
}

func (f *peakWindow) Forecast() float64 {
	if len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].v
}

// nextExpiry reports when the head sample will fall out of the window
// — the next moment the forecast value can change without a new demand
// sample. With zero or one samples there is nothing behind the head to
// promote, so expiry alone cannot change Forecast() and no deadline is
// due. The incremental manager uses this to skip Observe calls on VMs
// whose forecast provably cannot have moved.
func (f *peakWindow) nextExpiry() (time.Duration, bool) {
	if len(f.samples) < 2 {
		return 0, false
	}
	return f.samples[0].at + f.window, true
}
