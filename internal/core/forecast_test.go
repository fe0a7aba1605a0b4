package core

import (
	"math"
	"testing"
	"time"

	"agilepower/internal/sim"
)

func TestForecastKindStrings(t *testing.T) {
	if ForecastLastValue.String() != "last-value" ||
		ForecastEWMA.String() != "ewma" ||
		ForecastPeakWindow.String() != "peak-window" {
		t.Fatal("kind names wrong")
	}
	if ForecastKind(99).String() != "forecast?" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := (ForecastSpec{Kind: ForecastEWMA, Alpha: 2}).New(); err == nil {
		t.Error("accepted alpha > 1")
	}
	if _, err := (ForecastSpec{Kind: ForecastEWMA, Alpha: -0.5}).New(); err == nil {
		t.Error("accepted negative alpha")
	}
	if _, err := (ForecastSpec{Kind: ForecastPeakWindow, Window: -time.Second}).New(); err == nil {
		t.Error("accepted negative window")
	}
	if _, err := (ForecastSpec{Kind: ForecastKind(42)}).New(); err == nil {
		t.Error("accepted unknown kind")
	}
}

func TestLastValue(t *testing.T) {
	f, err := ForecastSpec{Kind: ForecastLastValue}.New()
	if err != nil {
		t.Fatal(err)
	}
	if f.Forecast() != 0 {
		t.Fatal("unprimed forecast nonzero")
	}
	f.Observe(0, 3)
	f.Observe(time.Minute, 7)
	if f.Forecast() != 7 {
		t.Fatalf("forecast = %v, want 7", f.Forecast())
	}
}

func TestEWMAConvergesAndSmooths(t *testing.T) {
	f, err := ForecastSpec{Kind: ForecastEWMA, Alpha: 0.5}.New()
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(0, 10)
	if f.Forecast() != 10 {
		t.Fatalf("first observation should prime: %v", f.Forecast())
	}
	f.Observe(time.Minute, 0)
	if f.Forecast() != 5 {
		t.Fatalf("ewma = %v, want 5", f.Forecast())
	}
	// Converges to a constant signal.
	for i := 0; i < 50; i++ {
		f.Observe(time.Duration(i)*time.Minute, 4)
	}
	if math.Abs(f.Forecast()-4) > 1e-6 {
		t.Fatalf("ewma did not converge: %v", f.Forecast())
	}
}

func TestPeakWindowTracksMax(t *testing.T) {
	f, err := ForecastSpec{Kind: ForecastPeakWindow, Window: 10 * time.Minute}.New()
	if err != nil {
		t.Fatal(err)
	}
	if f.Forecast() != 0 {
		t.Fatal("empty window should forecast 0")
	}
	f.Observe(0, 2)
	f.Observe(1*time.Minute, 8) // the spike
	f.Observe(2*time.Minute, 3)
	if f.Forecast() != 8 {
		t.Fatalf("forecast = %v, want spike 8", f.Forecast())
	}
	// Spike still inside the window at t=11 (observed at 1m, window 10m).
	f.Observe(11*time.Minute, 1)
	if f.Forecast() != 8 {
		t.Fatalf("forecast = %v, spike expired too early", f.Forecast())
	}
	// At t=12 the spike (1m + 10m window) has expired.
	f.Observe(12*time.Minute, 1)
	if f.Forecast() != 3 {
		t.Fatalf("forecast = %v, want 3 (next max in window)", f.Forecast())
	}
}

func TestPeakWindowMonotoneDeque(t *testing.T) {
	f, _ := ForecastSpec{Kind: ForecastPeakWindow, Window: time.Hour}.New()
	// Increasing then decreasing values: forecast is always the max
	// seen within the window.
	vals := []float64{1, 4, 2, 9, 3, 3, 5}
	max := 0.0
	for i, v := range vals {
		f.Observe(time.Duration(i)*time.Minute, v)
		if v > max {
			max = v
		}
		if f.Forecast() != max {
			t.Fatalf("after %v: forecast = %v, want %v", v, f.Forecast(), max)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	f, err := ForecastSpec{Kind: ForecastEWMA}.New() // alpha defaults to 0.3
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(0, 10)
	f.Observe(time.Minute, 0)
	if math.Abs(f.Forecast()-7) > 1e-9 {
		t.Fatalf("default alpha forecast = %v, want 7", f.Forecast())
	}
	if _, err := (ForecastSpec{Kind: ForecastPeakWindow}).New(); err != nil {
		t.Fatalf("default window rejected: %v", err)
	}
}

// reslicingPeakWindow is the peak-window deque as it was before Observe
// compacted in place: it re-sliced forward past expired samples. It is
// kept only as the oracle of TestPeakWindowMatchesReslicingDeque.
type reslicingPeakWindow struct {
	window  time.Duration
	samples []sample
}

func (f *reslicingPeakWindow) Observe(at time.Duration, d float64) {
	cut := 0
	for cut < len(f.samples) && f.samples[cut].at+f.window < at {
		cut++
	}
	f.samples = f.samples[cut:]
	for len(f.samples) > 0 && f.samples[len(f.samples)-1].v <= d {
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, sample{at: at, v: d})
}

func (f *reslicingPeakWindow) Forecast() float64 {
	if len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].v
}

func (f *reslicingPeakWindow) nextExpiry() (time.Duration, bool) {
	if len(f.samples) < 2 {
		return 0, false
	}
	return f.samples[0].at + f.window, true
}

// TestPeakWindowMatchesReslicingDeque feeds random (time, demand)
// streams — steps that repeat an instant, stay inside the window or
// jump past it, demands drawn from a few levels so ties are common —
// to the compacting deque and to the re-slicing one it replaced.
// Forecast and nextExpiry must agree after every observation.
func TestPeakWindowMatchesReslicingDeque(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		window := time.Duration(rng.Intn(20)+1) * time.Minute
		got := &peakWindow{window: window}
		want := &reslicingPeakWindow{window: window}
		at := time.Duration(0)
		for i := 0; i < 2000; i++ {
			switch r := rng.Intn(10); {
			case r == 0: // repeat the instant
			case r < 8:
				at += time.Duration(rng.Intn(3)+1) * time.Minute
			default:
				at += window + time.Duration(rng.Intn(30))*time.Minute
			}
			d := float64(rng.Intn(6)) / 2
			got.Observe(at, d)
			want.Observe(at, d)
			if g, w := got.Forecast(), want.Forecast(); g != w {
				t.Fatalf("seed %d obs %d: Forecast %v, want %v", seed, i, g, w)
			}
			ge, gok := got.nextExpiry()
			we, wok := want.nextExpiry()
			if ge != we || gok != wok {
				t.Fatalf("seed %d obs %d: nextExpiry (%v, %v), want (%v, %v)", seed, i, ge, gok, we, wok)
			}
		}
	}
}

// TestPeakWindowObserveAllocFree pins that a warmed-up deque observes
// without allocating, however long it runs: expired samples are
// compacted away in place, so the backing array never shrinks under an
// append.
func TestPeakWindowObserveAllocFree(t *testing.T) {
	f := &peakWindow{window: 15 * time.Minute}
	at := time.Duration(0)
	// A falling sawtooth keeps the deque several samples deep, so most
	// observations expire the head. A re-sliced deque reallocates only
	// every few dozen observations, so each measured run makes a
	// thousand.
	observe := func() {
		for i := 0; i < 1000; i++ {
			at += time.Minute
			f.Observe(at, float64(30-int(at/time.Minute)%30))
		}
	}
	observe()
	if allocs := testing.AllocsPerRun(20, observe); allocs != 0 {
		t.Fatalf("Observe allocates: %v allocs per 1000 observations, want 0", allocs)
	}
}
