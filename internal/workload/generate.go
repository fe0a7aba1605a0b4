package workload

import (
	"math"
	"time"

	"agilepower/internal/sim"
)

// Generators below synthesize the workload classes the paper's
// evaluation draws on: diurnal enterprise load with deep night troughs,
// flash-crowd spikes that stress wake-up latency, batch jobs, and
// mean-reverting noise. All generators are deterministic given an RNG.

// DiurnalSpec parameterizes an enterprise day/night demand curve.
type DiurnalSpec struct {
	// Interval is the sampling period (default 1 minute).
	Interval time.Duration
	// Days is the number of 24-hour cycles to generate (default 1).
	Days int
	// BaseCores is the trough (night) demand.
	BaseCores float64
	// PeakCores is the midday peak demand.
	PeakCores float64
	// PeakHour is the hour of day [0,24) when demand peaks (default 14).
	PeakHour float64
	// NoiseFrac adds zero-mean Gaussian noise with stddev equal to this
	// fraction of the local demand.
	NoiseFrac float64
	// PhaseJitter shifts the whole curve by up to ± this duration,
	// decorrelating VMs so cluster demand is smooth rather than
	// lock-stepped.
	PhaseJitter time.Duration
	// WeekendScale, when in (0,1), multiplies demand on days 6 and 7
	// of each week (enterprise load drops on weekends). Day 1 of the
	// trace is a Monday. Weekly structure defeats purely daily
	// predictors — see the predict experiment.
	WeekendScale float64
}

func (s *DiurnalSpec) defaults() {
	if s.Interval <= 0 {
		s.Interval = time.Minute
	}
	if s.Days <= 0 {
		s.Days = 1
	}
	if s.PeakHour == 0 {
		s.PeakHour = 14
	}
}

// Diurnal generates a day/night cycle: a raised cosine between
// BaseCores and PeakCores peaking at PeakHour, with optional noise and
// phase jitter.
func Diurnal(rng *sim.RNG, spec DiurnalSpec) *Trace {
	spec.defaults()
	day := 24 * time.Hour
	n := int(time.Duration(spec.Days) * day / spec.Interval)
	shift := time.Duration(0)
	if spec.PhaseJitter > 0 {
		shift = time.Duration(rng.Range(-float64(spec.PhaseJitter), float64(spec.PhaseJitter)))
	}
	samples := make([]float64, n)
	amp := (spec.PeakCores - spec.BaseCores) / 2
	mid := (spec.PeakCores + spec.BaseCores) / 2
	for i := range samples {
		at := time.Duration(i)*spec.Interval + shift
		hour := wrapHour(at.Hours())
		// Raised cosine with maximum at PeakHour.
		v := mid + amp*math.Cos(2*math.Pi*(hour-spec.PeakHour)/24)
		if spec.WeekendScale > 0 && spec.WeekendScale < 1 {
			dayOfWeek := int(time.Duration(i)*spec.Interval/(24*time.Hour)) % 7
			if dayOfWeek >= 5 { // Saturday, Sunday
				v *= spec.WeekendScale
			}
		}
		if spec.NoiseFrac > 0 {
			v += rng.Norm(0, spec.NoiseFrac*v)
		}
		if v < 0 {
			v = 0
		}
		samples[i] = v
	}
	return &Trace{Interval: spec.Interval, Samples: samples}
}

// wrapHour returns math.Mod(h, 24) bit for bit, without the call for
// the hours a trace of up to two days reads: on (-24, 24) the hour is
// its own remainder, and on [24, 48) h-24 is exact (both operands
// within a factor of two of each other).
func wrapHour(h float64) float64 {
	switch {
	case h > -24 && h < 24:
		return h
	case h >= 24 && h < 48:
		return h - 24
	}
	return math.Mod(h, 24)
}

// SpikeSpec parameterizes a flash-crowd overlay.
type SpikeSpec struct {
	Interval time.Duration
	// Length is the total trace length (default 24h).
	Length time.Duration
	// BaseCores is the steady demand outside spikes.
	BaseCores float64
	// SpikeCores is the demand during a spike.
	SpikeCores float64
	// Spikes is how many spikes to place (uniformly at random).
	Spikes int
	// SpikeLen is the duration of each spike (default 10 minutes).
	SpikeLen time.Duration
	// RampLen is the rise time from base to spike demand (default one
	// interval — a near-instant flash crowd).
	RampLen time.Duration
	// Starts, when non-empty, pins the spike onset times instead of
	// placing Spikes uniformly at random. Sharing the same Starts
	// across a fleet of VMs models a correlated flash crowd — the
	// arrival pattern that stresses wake-up latency, because the whole
	// tier surges at once.
	Starts []time.Duration
	// StartJitter shifts each pinned start by a uniform ± offset, so
	// correlated VMs do not move in perfect lockstep.
	StartJitter time.Duration
}

func (s *SpikeSpec) defaults() {
	if s.Interval <= 0 {
		s.Interval = time.Minute
	}
	if s.Length <= 0 {
		s.Length = 24 * time.Hour
	}
	if s.SpikeLen <= 0 {
		s.SpikeLen = 10 * time.Minute
	}
	if s.RampLen <= 0 {
		s.RampLen = s.Interval
	}
}

// Spiky generates steady demand with randomly placed flash-crowd
// spikes. This is the workload that punishes slow wake-up: serving the
// spike needs capacity that a power manager may have parked.
func Spiky(rng *sim.RNG, spec SpikeSpec) *Trace {
	spec.defaults()
	n := int(spec.Length / spec.Interval)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = spec.BaseCores
	}
	spikeIv := int(spec.SpikeLen / spec.Interval)
	rampIv := int(spec.RampLen / spec.Interval)
	if rampIv < 1 {
		rampIv = 1
	}
	starts := make([]int, 0, spec.Spikes)
	if len(spec.Starts) > 0 {
		for _, at := range spec.Starts {
			if spec.StartJitter > 0 {
				at += time.Duration(rng.Range(-float64(spec.StartJitter), float64(spec.StartJitter)))
			}
			idx := int(at / spec.Interval)
			if idx < 0 {
				idx = 0
			}
			if idx < n {
				starts = append(starts, idx)
			}
		}
	} else {
		for s := 0; s < spec.Spikes; s++ {
			starts = append(starts, rng.Intn(n))
		}
	}
	for _, start := range starts {
		for j := 0; j < spikeIv && start+j < n; j++ {
			v := spec.SpikeCores
			if j < rampIv {
				v = spec.BaseCores + (spec.SpikeCores-spec.BaseCores)*float64(j+1)/float64(rampIv)
			}
			if v > samples[start+j] {
				samples[start+j] = v
			}
		}
	}
	return &Trace{Interval: spec.Interval, Samples: samples}
}

// BatchSpec parameterizes a periodic batch job.
type BatchSpec struct {
	Interval time.Duration
	Length   time.Duration
	// IdleCores is the demand between runs.
	IdleCores float64
	// RunCores is the demand during a run.
	RunCores float64
	// Period is the spacing between run starts (default 4h).
	Period time.Duration
	// RunLen is the duration of each run (default 45 minutes).
	RunLen time.Duration
}

func (s *BatchSpec) defaults() {
	if s.Interval <= 0 {
		s.Interval = time.Minute
	}
	if s.Length <= 0 {
		s.Length = 24 * time.Hour
	}
	if s.Period <= 0 {
		s.Period = 4 * time.Hour
	}
	if s.RunLen <= 0 {
		s.RunLen = 45 * time.Minute
	}
}

// Batch generates a mostly idle trace with periodic full-load runs,
// offset by a random phase.
func Batch(rng *sim.RNG, spec BatchSpec) *Trace {
	spec.defaults()
	n := int(spec.Length / spec.Interval)
	samples := make([]float64, n)
	offset := time.Duration(rng.Float64() * float64(spec.Period))
	for i := range samples {
		at := time.Duration(i) * spec.Interval
		inPeriod := (at + offset) % spec.Period
		if inPeriod < spec.RunLen {
			samples[i] = spec.RunCores
		} else {
			samples[i] = spec.IdleCores
		}
	}
	return &Trace{Interval: spec.Interval, Samples: samples}
}

// WorkdaySpec parameterizes a step-ramp business-day curve: low
// overnight demand jumping to full daytime load within minutes of a
// fixed opening time, every day — the market-open pattern where a
// recurring ramp is *steep* relative to server boot latency. This is
// the workload where predictive wake matters.
type WorkdaySpec struct {
	Interval time.Duration
	// Days is the number of 24-hour cycles (default 1).
	Days int
	// LowCores is the overnight demand.
	LowCores float64
	// HighCores is the business-hours demand.
	HighCores float64
	// OpenHour and CloseHour bound the business day (defaults 9, 18).
	OpenHour  float64
	CloseHour float64
	// JumpLen is how long the open/close transitions take (default 2
	// minutes).
	JumpLen time.Duration
	// OpenJitter shifts each VM's open/close by a uniform ± offset so
	// the fleet ramps over a couple of minutes rather than one tick.
	OpenJitter time.Duration
	// NoiseFrac adds zero-mean Gaussian noise proportional to demand.
	NoiseFrac float64
	// Weekends, when true, keeps days 6 and 7 of each week at
	// LowCores: no business-day ramp on Saturday/Sunday.
	Weekends bool
}

func (s *WorkdaySpec) defaults() {
	if s.Interval <= 0 {
		s.Interval = time.Minute
	}
	if s.Days <= 0 {
		s.Days = 1
	}
	if s.OpenHour == 0 {
		s.OpenHour = 9
	}
	if s.CloseHour == 0 {
		s.CloseHour = 18
	}
	if s.JumpLen <= 0 {
		s.JumpLen = 2 * time.Minute
	}
}

// Workday generates the step-ramp business-day curve.
func Workday(rng *sim.RNG, spec WorkdaySpec) *Trace {
	spec.defaults()
	shift := time.Duration(0)
	if spec.OpenJitter > 0 {
		shift = time.Duration(rng.Range(-float64(spec.OpenJitter), float64(spec.OpenJitter)))
	}
	day := 24 * time.Hour
	n := int(time.Duration(spec.Days) * day / spec.Interval)
	samples := make([]float64, n)
	open := time.Duration(spec.OpenHour*float64(time.Hour)) + shift
	close := time.Duration(spec.CloseHour*float64(time.Hour)) + shift
	for i := range samples {
		inDay := (time.Duration(i) * spec.Interval) % day
		v := spec.LowCores
		if spec.Weekends {
			if dayOfWeek := int(time.Duration(i)*spec.Interval/day) % 7; dayOfWeek >= 5 {
				if spec.NoiseFrac > 0 {
					v += rng.Norm(0, spec.NoiseFrac*v)
				}
				if v < 0 {
					v = 0
				}
				samples[i] = v
				continue
			}
		}
		switch {
		case inDay >= open && inDay < open+spec.JumpLen:
			frac := float64(inDay-open) / float64(spec.JumpLen)
			v = spec.LowCores + frac*(spec.HighCores-spec.LowCores)
		case inDay >= open+spec.JumpLen && inDay < close:
			v = spec.HighCores
		case inDay >= close && inDay < close+spec.JumpLen:
			frac := float64(inDay-close) / float64(spec.JumpLen)
			v = spec.HighCores - frac*(spec.HighCores-spec.LowCores)
		}
		if spec.NoiseFrac > 0 {
			v += rng.Norm(0, spec.NoiseFrac*v)
		}
		if v < 0 {
			v = 0
		}
		samples[i] = v
	}
	return &Trace{Interval: spec.Interval, Samples: samples}
}

// OUSpec parameterizes a mean-reverting (Ornstein-Uhlenbeck) demand
// walk, a standard model for noisy service demand.
type OUSpec struct {
	Interval time.Duration
	Length   time.Duration
	// MeanCores is the long-run mean demand.
	MeanCores float64
	// Volatility is the per-step noise magnitude (cores).
	Volatility float64
	// Reversion in (0,1] is the pull back to the mean per step.
	Reversion float64
	// MaxCores clamps the walk (default 4× mean).
	MaxCores float64
}

func (s *OUSpec) defaults() {
	if s.Interval <= 0 {
		s.Interval = time.Minute
	}
	if s.Length <= 0 {
		s.Length = 24 * time.Hour
	}
	if s.Reversion <= 0 || s.Reversion > 1 {
		s.Reversion = 0.1
	}
	if s.MaxCores <= 0 {
		s.MaxCores = 4 * s.MeanCores
	}
}

// RandomWalk generates a mean-reverting demand walk.
func RandomWalk(rng *sim.RNG, spec OUSpec) *Trace {
	spec.defaults()
	n := int(spec.Length / spec.Interval)
	samples := make([]float64, n)
	v := spec.MeanCores
	for i := range samples {
		v += spec.Reversion*(spec.MeanCores-v) + rng.Norm(0, spec.Volatility)
		if v < 0 {
			v = 0
		}
		if v > spec.MaxCores {
			v = spec.MaxCores
		}
		samples[i] = v
	}
	return &Trace{Interval: spec.Interval, Samples: samples}
}
