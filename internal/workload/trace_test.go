package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(0, []float64{1}); err == nil {
		t.Error("accepted zero interval")
	}
	if _, err := NewTrace(time.Minute, nil); err == nil {
		t.Error("accepted empty trace")
	}
	if _, err := NewTrace(time.Minute, []float64{1, -2}); err == nil {
		t.Error("accepted negative demand")
	}
	if _, err := NewTrace(time.Minute, []float64{1, 2}); err != nil {
		t.Errorf("rejected valid trace: %v", err)
	}
}

func TestAtStepsAndWraps(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{1, 2, 3})
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{30 * time.Second, 1},
		{time.Minute, 2},
		{2*time.Minute + 59*time.Second, 3},
		{3 * time.Minute, 1}, // wrap
		{7 * time.Minute, 2}, // wrap twice
		{-time.Minute, 1},    // clamp negative
	}
	for _, c := range cases {
		if got := tr.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestNextChange(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{1, 2})
	if got := tr.NextChange(0); got != time.Minute {
		t.Fatalf("NextChange(0) = %v", got)
	}
	if got := tr.NextChange(59 * time.Second); got != time.Minute {
		t.Fatalf("NextChange(59s) = %v", got)
	}
	if got := tr.NextChange(time.Minute); got != 2*time.Minute {
		t.Fatalf("NextChange(1m) = %v", got)
	}
}

func TestNextChangeSkipsEqualSamples(t *testing.T) {
	// Runs of equal samples are not changes: {1,1,2,2,1} changes at
	// samples 2 and 4 only (and wraps back to 1→... at cycle end the
	// value 1 continues into sample 0, so the wrap edge is sample 2 of
	// the next cycle... exercised below).
	tr, _ := NewTrace(time.Minute, []float64{1, 1, 2, 2, 1})
	if got := tr.NextChange(0); got != 2*time.Minute {
		t.Fatalf("NextChange(0) = %v, want 2m", got)
	}
	if got := tr.NextChange(90 * time.Second); got != 2*time.Minute {
		t.Fatalf("NextChange(90s) = %v, want 2m", got)
	}
	if got := tr.NextChange(2 * time.Minute); got != 4*time.Minute {
		t.Fatalf("NextChange(2m) = %v, want 4m", got)
	}
	// At sample 4 (value 1), the value stays 1 through the wrap into
	// samples 0 and 1 of the next cycle; the next change is sample 2 of
	// the next cycle, at 5m+2m.
	if got := tr.NextChange(4 * time.Minute); got != 7*time.Minute {
		t.Fatalf("NextChange(4m) = %v, want 7m", got)
	}
	// Deep into a later cycle the table still applies.
	if got := tr.NextChange(10*time.Minute + 30*time.Second); got != 12*time.Minute {
		t.Fatalf("NextChange(10m30s) = %v, want 12m", got)
	}
}

func TestNextChangeConstantIsNever(t *testing.T) {
	if got := Constant(2).NextChange(0); got != Never {
		t.Fatalf("Constant NextChange = %v, want Never", got)
	}
	tr, _ := NewTrace(time.Minute, []float64{3, 3, 3})
	if got := tr.NextChange(time.Hour); got != Never {
		t.Fatalf("flat multi-sample NextChange = %v, want Never", got)
	}
}

// Oracle: NextChange must agree with brute-force per-tick sampling —
// the value is constant on [at, NextChange) and differs at NextChange.
// This is exactly the contract delta evaluation relies on to skip
// quiescent hosts.
func TestNextChangeAgainstSamplingOracle(t *testing.T) {
	traces := []*Trace{
		Constant(1.5),
		mustTrace(t, time.Minute, []float64{1, 2}),
		mustTrace(t, time.Minute, []float64{1, 1, 2, 2, 1}),
		mustTrace(t, 30*time.Second, []float64{0, 0, 0, 5, 5, 0, 3}),
		mustTrace(t, time.Minute, []float64{2, 2, 2, 2}),
		mustTrace(t, 15*time.Second, []float64{1, 2, 1, 2, 2}),
	}
	for ti, tr := range traces {
		cycle := tr.Duration()
		horizon := 3 * cycle
		step := tr.Interval / 3 // probe off-boundary times too
		for at := time.Duration(0); at < horizon; at += step {
			got := tr.NextChange(at)
			// Brute force: scan tick by tick for the next differing value.
			want := Never
			v := tr.At(at)
			for probe := at + tr.Interval/6; probe < at+2*cycle+tr.Interval; probe += tr.Interval / 6 {
				if tr.At(probe) != v {
					// Round down to the sample boundary the change sits on.
					want = probe / tr.Interval * tr.Interval
					break
				}
			}
			if got != want {
				t.Fatalf("trace %d: NextChange(%v) = %v, oracle %v", ti, at, got, want)
			}
			if got != Never {
				if tr.At(got) == v {
					t.Fatalf("trace %d: value did not change at NextChange(%v)=%v", ti, at, got)
				}
				if got <= at {
					t.Fatalf("trace %d: NextChange(%v)=%v not strictly after", ti, at, got)
				}
			}
		}
	}
}

// TestNextChangeMatchesScan holds NextChange to a brute-force scan of
// the samples on random traces of every shape the jump table and the
// adjacent-sample check must agree on: noisy traces whose consecutive
// samples all differ, plateaus, constant traces, one sample, and a run
// that wraps around the end of the cycle. Every sample position of two
// cycles is probed, at its start and inside it, and so are negative
// times, which read as 0. A trace whose consecutive samples all differ
// never needs its jump table, so it must not have built one.
func TestNextChangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scan := func(tr *Trace, at time.Duration) time.Duration {
		if at < 0 {
			at = 0
		}
		n := len(tr.Samples)
		p := int(at / tr.Interval)
		for k := p + 1; k <= p+n; k++ {
			if tr.Samples[k%n] != tr.Samples[p%n] {
				return time.Duration(k) * tr.Interval
			}
		}
		return Never
	}
	noisy := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i%2) + rng.Float64()/2 // neighbours differ, wrap included
		}
		if n%2 == 1 && n > 1 {
			s[n-1] = 3 // odd length: the last and first would both be even
		}
		return s
	}
	plateaus := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			if i == 0 || rng.Intn(3) == 0 {
				s[i] = float64(rng.Intn(3))
			} else {
				s[i] = s[i-1]
			}
		}
		return s
	}
	wrapRun := func(n int) []float64 {
		s := noisy(n)
		run := 1 + rng.Intn(n/2)
		for i := 0; i < run; i++ {
			s[i] = 9
			s[n-1-i] = 9
		}
		return s
	}
	constant := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1.25
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		var samples []float64
		kind := trial % 5
		switch kind {
		case 0:
			samples = noisy(n)
		case 1:
			samples = plateaus(n)
		case 2:
			samples = wrapRun(n)
		case 3:
			samples = constant(n)
		default:
			samples = []float64{rng.Float64()}
		}
		iv := time.Duration(1+rng.Intn(90)) * time.Second
		tr := mustTrace(t, iv, samples)
		probes := []time.Duration{-1, -iv, -tr.Duration() - 1}
		for p := 0; p < 2*len(samples); p++ {
			start := time.Duration(p) * iv
			probes = append(probes, start, start+time.Duration(rng.Int63n(int64(iv))))
		}
		for _, at := range probes {
			if got, want := tr.NextChange(at), scan(tr, at); got != want {
				t.Fatalf("trial %d (kind %d, %v): NextChange(%v) = %v, scan %v", trial, kind, samples, at, got, want)
			}
		}
		if kind == 0 && tr.nextEdge != nil {
			t.Fatalf("trial %d: a trace whose consecutive samples all differ built its jump table", trial)
		}
	}
}

// TestNextChangeConcurrent has shard workers' pattern: goroutines that
// look changes up on one shared plateau trace at once, the first of
// them building its jump table. Run under -race.
func TestNextChangeConcurrent(t *testing.T) {
	tr := mustTrace(t, time.Minute, []float64{1, 1, 1, 2, 2, 3, 1, 1})
	want := make([]time.Duration, 2*len(tr.Samples))
	ref := mustTrace(t, time.Minute, tr.Samples) // its own table
	for p := range want {
		want[p] = ref.NextChange(time.Duration(p) * time.Minute)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := range want {
				p := (p + g*3) % len(want)
				if got := tr.NextChange(time.Duration(p) * time.Minute); got != want[p] {
					errs <- fmt.Sprintf("goroutine %d: NextChange(%dm) = %v, want %v", g, p, got, want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func mustTrace(t *testing.T, iv time.Duration, samples []float64) *Trace {
	t.Helper()
	tr, err := NewTrace(iv, samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPeakMeanDuration(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{1, 3, 2})
	if tr.Peak() != 3 {
		t.Fatalf("Peak = %v", tr.Peak())
	}
	if tr.Mean() != 2 {
		t.Fatalf("Mean = %v", tr.Mean())
	}
	if tr.Duration() != 3*time.Minute {
		t.Fatalf("Duration = %v", tr.Duration())
	}
}

func TestScaleClamp(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{1, 2, 4})
	s := tr.Scale(2)
	if s.Samples[2] != 8 {
		t.Fatalf("Scale: %v", s.Samples)
	}
	if tr.Samples[2] != 4 {
		t.Fatal("Scale mutated the original")
	}
	c := tr.Clamp(1.5)
	if c.Samples[0] != 1 || c.Samples[1] != 1.5 || c.Samples[2] != 1.5 {
		t.Fatalf("Clamp: %v", c.Samples)
	}
	n := tr.Scale(-1)
	for _, v := range n.Samples {
		if v != 0 {
			t.Fatal("negative scale should floor at 0")
		}
	}
}

func TestAddCyclicExtension(t *testing.T) {
	a, _ := NewTrace(time.Minute, []float64{1, 1, 1, 1})
	b, _ := NewTrace(time.Minute, []float64{10, 20})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 21, 11, 21}
	for i := range want {
		if sum.Samples[i] != want[i] {
			t.Fatalf("Add = %v, want %v", sum.Samples, want)
		}
	}
}

func TestAddIntervalMismatch(t *testing.T) {
	a, _ := NewTrace(time.Minute, []float64{1})
	b, _ := NewTrace(time.Second, []float64{1})
	if _, err := Add(a, b); err == nil {
		t.Fatal("Add accepted interval mismatch")
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(2.5)
	if tr.At(0) != 2.5 || tr.At(100*time.Hour) != 2.5 {
		t.Fatal("Constant trace not constant")
	}
}

// Property: At() always returns one of the trace's sample values and
// never negative.
func TestAtProperty(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{0, 1.5, 7, 0.25})
	inSet := map[float64]bool{0: true, 1.5: true, 7: true, 0.25: true}
	f := func(secs uint32) bool {
		v := tr.At(time.Duration(secs) * time.Second)
		return v >= 0 && inSet[v]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean scales linearly with Scale.
func TestScaleMeanProperty(t *testing.T) {
	tr, _ := NewTrace(time.Minute, []float64{1, 2, 3, 4, 5})
	f := func(fRaw uint8) bool {
		factor := float64(fRaw) / 16
		s := tr.Scale(factor)
		return math.Abs(s.Mean()-tr.Mean()*factor) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
