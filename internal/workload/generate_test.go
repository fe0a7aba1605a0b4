package workload

import (
	"math"
	"testing"
	"time"

	"agilepower/internal/sim"
)

// TestWrapHourMatchesMod pins Diurnal's hour wrap to the expression it
// replaced, math.Mod(at.Hours(), 24), bit for bit: at every sample
// time of one-day and seven-day traces, shifted by phase jitter of
// both signs (the extremes, one nanosecond off them and off zero, and
// random shifts), and at the boundaries of its exact ranges.
func TestWrapHourMatchesMod(t *testing.T) {
	const jitter = 90 * time.Minute
	shifts := []time.Duration{-jitter, -jitter + 1, -1, 0, 1, jitter - 1, jitter, -24 * time.Hour, 24 * time.Hour}
	rng := sim.NewRNG(1)
	for i := 0; i < 64; i++ {
		shifts = append(shifts, time.Duration(rng.Range(-float64(jitter), float64(jitter))))
	}
	check := func(h float64) {
		t.Helper()
		if got, want := wrapHour(h), math.Mod(h, 24); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapHour(%v) = %v, math.Mod gives %v", h, got, want)
		}
	}
	for _, days := range []int{1, 7} {
		for _, shift := range shifts {
			n := int(time.Duration(days) * 24 * time.Hour / time.Minute)
			for i := 0; i < n; i++ {
				check((time.Duration(i)*time.Minute + shift).Hours())
			}
		}
	}
	for _, h := range []float64{-48, -24, math.Nextafter(-24, 0), math.Copysign(0, -1), 0, math.Nextafter(24, 0), 24,
		math.Nextafter(48, 0), 48, math.Nextafter(48, 100), 1e9, -1e9} {
		check(h)
	}
}

func TestDiurnalShape(t *testing.T) {
	rng := sim.NewRNG(1)
	tr := Diurnal(rng, DiurnalSpec{BaseCores: 1, PeakCores: 5})
	if tr.Duration() != 24*time.Hour {
		t.Fatalf("duration = %v, want 24h", tr.Duration())
	}
	// Peak should be near hour 14, trough near hour 2.
	peak := tr.At(14 * time.Hour)
	trough := tr.At(2 * time.Hour)
	if peak < 4.5 || peak > 5.5 {
		t.Fatalf("peak demand = %v, want ~5", peak)
	}
	if trough < 0.5 || trough > 1.5 {
		t.Fatalf("trough demand = %v, want ~1", trough)
	}
	if peak <= trough {
		t.Fatal("no day/night contrast")
	}
}

func TestDiurnalNeverNegative(t *testing.T) {
	rng := sim.NewRNG(2)
	tr := Diurnal(rng, DiurnalSpec{BaseCores: 0.1, PeakCores: 2, NoiseFrac: 0.5})
	for i, s := range tr.Samples {
		if s < 0 {
			t.Fatalf("negative demand %v at sample %d", s, i)
		}
	}
}

func TestDiurnalMultipleDays(t *testing.T) {
	rng := sim.NewRNG(3)
	tr := Diurnal(rng, DiurnalSpec{Days: 3, BaseCores: 1, PeakCores: 2})
	if tr.Duration() != 72*time.Hour {
		t.Fatalf("duration = %v, want 72h", tr.Duration())
	}
}

func TestDiurnalDeterministic(t *testing.T) {
	a := Diurnal(sim.NewRNG(7), DiurnalSpec{BaseCores: 1, PeakCores: 4, NoiseFrac: 0.1})
	b := Diurnal(sim.NewRNG(7), DiurnalSpec{BaseCores: 1, PeakCores: 4, NoiseFrac: 0.1})
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestDiurnalPhaseJitterShiftsPeak(t *testing.T) {
	spec := DiurnalSpec{BaseCores: 0, PeakCores: 10, PhaseJitter: 3 * time.Hour}
	shifted := false
	for seed := uint64(0); seed < 10; seed++ {
		tr := Diurnal(sim.NewRNG(seed), spec)
		if tr.At(14*time.Hour) < 9.5 {
			shifted = true
		}
	}
	if !shifted {
		t.Fatal("phase jitter never moved the peak")
	}
}

func TestSpikyHasSpikesAndBase(t *testing.T) {
	rng := sim.NewRNG(4)
	tr := Spiky(rng, SpikeSpec{BaseCores: 1, SpikeCores: 8, Spikes: 5})
	peak := tr.Peak()
	if peak != 8 {
		t.Fatalf("peak = %v, want 8", peak)
	}
	atBase := 0
	for _, s := range tr.Samples {
		if s == 1 {
			atBase++
		}
	}
	if atBase < len(tr.Samples)/2 {
		t.Fatalf("only %d/%d samples at base; spikes dominate", atBase, len(tr.Samples))
	}
}

func TestSpikyZeroSpikesIsFlat(t *testing.T) {
	tr := Spiky(sim.NewRNG(5), SpikeSpec{BaseCores: 2, SpikeCores: 9, Spikes: 0})
	for _, s := range tr.Samples {
		if s != 2 {
			t.Fatal("flat trace has non-base samples")
		}
	}
}

func TestSpikyRamp(t *testing.T) {
	// With a long ramp, samples between base and spike must exist.
	tr := Spiky(sim.NewRNG(6), SpikeSpec{
		BaseCores: 0, SpikeCores: 10, Spikes: 3,
		SpikeLen: 30 * time.Minute, RampLen: 10 * time.Minute,
	})
	mid := false
	for _, s := range tr.Samples {
		if s > 1 && s < 9 {
			mid = true
		}
	}
	if !mid {
		t.Fatal("ramped spike has no intermediate samples")
	}
}

func TestBatchPeriodicity(t *testing.T) {
	tr := Batch(sim.NewRNG(7), BatchSpec{
		IdleCores: 0.2, RunCores: 4,
		Period: 2 * time.Hour, RunLen: 30 * time.Minute,
	})
	runSamples, idleSamples := 0, 0
	for _, s := range tr.Samples {
		switch s {
		case 4:
			runSamples++
		case 0.2:
			idleSamples++
		default:
			t.Fatalf("unexpected sample %v", s)
		}
	}
	// 30 min of every 2h → a quarter of samples at run level.
	frac := float64(runSamples) / float64(runSamples+idleSamples)
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("run fraction = %v, want ~0.25", frac)
	}
}

func TestRandomWalkBounds(t *testing.T) {
	tr := RandomWalk(sim.NewRNG(8), OUSpec{MeanCores: 2, Volatility: 1})
	for _, s := range tr.Samples {
		if s < 0 || s > 8 {
			t.Fatalf("walk escaped [0, 4*mean]: %v", s)
		}
	}
}

func TestRandomWalkMeanReversion(t *testing.T) {
	tr := RandomWalk(sim.NewRNG(9), OUSpec{
		MeanCores: 3, Volatility: 0.3, Reversion: 0.2, Length: 72 * time.Hour,
	})
	m := tr.Mean()
	if m < 2.5 || m > 3.5 {
		t.Fatalf("walk mean = %v, want ~3", m)
	}
}
