// Package ledger is the end-to-end benchmark's record format and the
// statistics computed over it. The harness appends one Record per
// invocation; the comparator reads two sets of them back.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// SchemaVersion is the Record layout version.
const SchemaVersion = 1

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is everything one benchmark invocation measured: the machine
// it ran on, its inputs, every repetition's raw samples, the reported
// metrics (medians for timings), the op counts, and a digest of the
// simulated statistics per input the repetitions ran, in input order,
// which must not change unless the simulated behaviour does.
type Record struct {
	Schema     int                  `json:"schema"`
	Commit     string               `json:"commit"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"numcpu"`
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Samples    map[string][]float64 `json:"samples"`
	Metrics    map[string]Metric    `json:"metrics"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Correct    bool                 `json:"correct"`
	Digests    []string             `json:"digests"`
}

// Append writes rec as one JSON line at the end of path.
func Append(path string, rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read loads every record of a JSON-lines file.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != SchemaVersion {
			return nil, fmt.Errorf("%s:%d: schema %d, want %d", path, line, r.Schema, SchemaVersion)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method, or NaN for no samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps products such as 0.9 × 100 from rounding up a rank.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// tailLadder is the set of percentiles a latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// HighestPercentile returns the highest percentile on the ladder
// 99.9/99/95/90/50 that has at least ten of n samples beyond it, or 0
// when none has: a tail estimate resting on fewer samples is noise.
func HighestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// Quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread bounds are stated in. Fewer than
// two samples have no spread: both quartiles are the single value (or
// NaN).
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := Median(xs)
		return m, m
	}
	s := sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
