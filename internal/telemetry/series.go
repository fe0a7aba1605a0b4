// Package telemetry collects and summarizes simulation measurements:
// time series (power, demand, host counts), distribution summaries
// (percentiles), and SLA accounting of demanded-versus-delivered CPU.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order (simulations are single-threaded and move
// forward). A Series is not safe for concurrent use: even the read
// accessors At and Summarize maintain internal caches (the step-lookup
// cursor and the sorted copy backing percentiles).
type Series struct {
	Name   string
	points []Point
	// cursor remembers where the last At lookup landed. Consumers
	// overwhelmingly replay a series in time order (SLA sweeps, report
	// rendering, property tests), so the next sample is almost always a
	// step or two forward — amortized O(1) instead of a binary search
	// per call. Backward seeks fall back to search.
	cursor int
	// sorted caches the value-sorted copy behind Summarize; sortedOK
	// goes false on Append/Reset so the cache is rebuilt at most once
	// per series version, however many percentiles a report takes.
	sorted   []float64
	sortedOK bool

	// cap, when positive, bounds the stored sample count: appends
	// accumulate into fixed-width buckets of stride raw samples each,
	// and when the store fills, adjacent buckets are folded pairwise in
	// place and the stride doubles. Memory stays O(cap) for any run
	// length. 0 (the default) stores every sample.
	cap    int
	stride int
	// pendCount tracks how many raw samples the open tail bucket has
	// absorbed (0 = no open bucket); pendSum is their running sum. The
	// tail point is updated in place so readers always see a complete
	// series without a flush step.
	pendCount int
	pendSum   float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewSeriesCap returns an empty named series with room for capacity
// samples before the backing array has to grow. Simulations that know
// their sample count up front (horizon / evaluation step) use this to
// keep the hot recording path allocation-free.
func NewSeriesCap(name string, capacity int) *Series {
	if capacity < 0 {
		capacity = 0
	}
	return &Series{Name: name, points: make([]Point, 0, capacity)}
}

// Reset empties the series in place, keeping the backing array so a
// rerun of the same shape appends without reallocating. Slices
// previously handed out by Points are invalidated by the next Append.
func (s *Series) Reset() {
	s.points = s.points[:0]
	s.cursor = 0
	s.sortedOK = false
	if s.cap > 0 {
		s.stride = 1
	}
	s.pendCount = 0
	s.pendSum = 0
}

// SetCap bounds the series to at most n stored samples (n is rounded
// up to an even minimum of 4). Once bounded, each stored point is the
// mean of a fixed-width bucket of raw samples, timestamped at the
// bucket start; when the store fills, adjacent buckets fold pairwise
// and the bucket width doubles, so memory stays O(n) for any run
// length. Folding is a pure function of the append sequence, so a
// capped series is still byte-identical across worker counts and to
// the full-scan test oracle. Must be called before the first
// Append.
func (s *Series) SetCap(n int) {
	if len(s.points) > 0 || s.pendCount > 0 {
		panic(fmt.Sprintf("telemetry: SetCap on non-empty series %q", s.Name))
	}
	if n <= 0 {
		s.cap, s.stride = 0, 0
		return
	}
	if n < 4 {
		n = 4
	}
	if n%2 == 1 {
		n++
	}
	s.cap = n
	s.stride = 1
}

// Cap returns the stored-sample bound (0 = unbounded).
func (s *Series) Cap() int { return s.cap }

// Append adds a sample. It panics on time going backwards, which would
// mean the simulation's causality was violated.
func (s *Series) Append(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && at < s.points[n-1].At {
		panic(fmt.Sprintf("telemetry: series %q time going backwards: %v after %v", s.Name, at, s.points[n-1].At))
	}
	if s.cap > 0 {
		s.appendBounded(at, v)
		return
	}
	s.points = append(s.points, Point{At: at, Value: v})
	s.sortedOK = false
}

// appendBounded absorbs a raw sample into the bucketed store.
func (s *Series) appendBounded(at time.Duration, v float64) {
	if cap(s.points) < s.cap {
		// The bounded store allocates on first append, not in SetCap:
		// building a world costs no telemetry memory until the series
		// actually records, which keeps cluster construction (and the
		// snapshot/fork path) lean. One allocation, then steady-state
		// appends never touch the heap.
		pts := make([]Point, len(s.points), s.cap)
		copy(pts, s.points)
		s.points = pts
	}
	s.sortedOK = false
	if s.pendCount == 0 {
		// Open a new bucket at this sample's time.
		s.points = append(s.points, Point{At: at, Value: v})
		s.pendSum = v
		s.pendCount = 1
	} else {
		s.pendSum += v
		s.pendCount++
		s.points[len(s.points)-1].Value = s.pendSum / float64(s.pendCount)
	}
	if s.pendCount == s.stride {
		s.pendCount = 0
		s.pendSum = 0
		if len(s.points) == s.cap {
			s.fold()
		}
	}
}

// fold halves the store by merging adjacent bucket pairs and doubles
// the stride. Every bucket is full (stride raw samples) when fold
// runs, so the mean-of-means equals the mean over the merged bucket.
func (s *Series) fold() {
	h := len(s.points) / 2
	for i := 0; i < h; i++ {
		a, b := s.points[2*i], s.points[2*i+1]
		s.points[i] = Point{At: a.At, Value: (a.Value + b.Value) / 2}
	}
	s.points = s.points[:h]
	s.stride *= 2
	s.cursor = 0
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (callers must not mutate).
func (s *Series) Points() []Point { return s.points }

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.Value
	}
	return out
}

// atScanLimit bounds how many samples At walks forward from the cursor
// before handing the rest of the jump to a binary search, so a single
// far-forward seek costs O(log n) instead of O(n) while dense in-order
// replay never leaves the cheap path.
const atScanLimit = 32

// At returns the value in effect at time at, treating the series as a
// step function (last sample at or before at). Returns 0 before the
// first sample.
//
// Lookups are amortized O(1) when queried in non-decreasing time order
// (the common access pattern): a cursor advances with the queries, and
// only backward seeks or long forward jumps fall back to binary
// search. The cursor makes At a mutating call — see the Series comment
// on concurrency.
func (s *Series) At(at time.Duration) float64 {
	n := len(s.points)
	if n == 0 || at < s.points[0].At {
		return 0
	}
	i := s.cursor
	if i >= n {
		i = n - 1
	}
	if s.points[i].At > at {
		// Backward seek: the answer is strictly before the cursor.
		// points[0].At <= at, so the search result is >= 1.
		i = sort.Search(i, func(j int) bool { return s.points[j].At > at }) - 1
	} else {
		for steps := 0; i+1 < n && s.points[i+1].At <= at; steps++ {
			if steps == atScanLimit {
				lo := i + 1
				i = lo + sort.Search(n-lo, func(j int) bool { return s.points[lo+j].At > at }) - 1
				break
			}
			i++
		}
	}
	s.cursor = i
	return s.points[i].Value
}

// Integrate returns the time integral of the step function over
// [from, to] in value·seconds. A power series in watts integrates to
// joules.
func (s *Series) Integrate(from, to time.Duration) float64 {
	if to <= from || len(s.points) == 0 {
		return 0
	}
	total := 0.0
	for i, p := range s.points {
		segStart := p.At
		var segEnd time.Duration
		if i+1 < len(s.points) {
			segEnd = s.points[i+1].At
		} else {
			segEnd = to
		}
		if segStart < from {
			segStart = from
		}
		if segEnd > to {
			segEnd = to
		}
		if segEnd > segStart {
			total += p.Value * (segEnd - segStart).Seconds()
		}
	}
	return total
}

// TimeMean returns the time-weighted mean over [from, to].
func (s *Series) TimeMean(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return s.Integrate(from, to) / (to - from).Seconds()
}

// Max returns the maximum sample value (0 for an empty series).
func (s *Series) Max() float64 {
	max := 0.0
	for i, p := range s.points {
		if i == 0 || p.Value > max {
			max = p.Value
		}
	}
	return max
}

// Downsample returns a new series with one time-weighted mean sample
// per bucket of width step, covering [0, horizon). Reports shrink
// day-long minute-resolution series to plottable sizes with this.
func (s *Series) Downsample(step, horizon time.Duration) *Series {
	if step <= 0 {
		return NewSeries(s.Name)
	}
	return s.DownsampleInto(NewSeriesCap(s.Name, int((horizon+step-1)/step)), step, horizon)
}

// DownsampleInto is Downsample writing into dst: dst is Reset and its
// backing array reused when it has the capacity, so report loops that
// render several same-shape series can recycle one scratch buffer.
// dst keeps its own Name. Returns dst.
func (s *Series) DownsampleInto(dst *Series, step, horizon time.Duration) *Series {
	dst.Reset()
	if step <= 0 {
		return dst
	}
	for start := time.Duration(0); start < horizon; start += step {
		end := start + step
		if end > horizon {
			end = horizon
		}
		dst.Append(start, s.TimeMean(start, end))
	}
	return dst
}

// Summary describes a sample distribution.
type Summary struct {
	Count              int
	Mean, Min, Max     float64
	P50, P90, P95, P99 float64
}

// Summarize computes distribution statistics of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return summarizeSorted(sorted)
}

// Summarize computes distribution statistics of the series' sample
// values. The sorted copy the percentiles need is cached on the series
// and invalidated by Append/Reset, so rendering code can take repeated
// summaries of a finished series without re-sorting each time.
func (s *Series) Summarize() Summary {
	if len(s.points) == 0 {
		return Summary{}
	}
	if !s.sortedOK {
		s.sorted = s.sorted[:0]
		for _, p := range s.points {
			s.sorted = append(s.sorted, p.Value)
		}
		sort.Float64s(s.sorted)
		s.sortedOK = true
	}
	return summarizeSorted(s.sorted)
}

// summarizeSorted builds the Summary from an already-sorted value
// slice (shared by the package-level Summarize and the cached series
// method).
func summarizeSorted(sorted []float64) Summary {
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   percentile(sorted, 0.50),
		P90:   percentile(sorted, 0.90),
		P95:   percentile(sorted, 0.95),
		P99:   percentile(sorted, 0.99),
	}
}

// percentile interpolates the p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}
