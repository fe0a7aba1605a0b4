// Command compare judges a change against its parent from two sets of
// benchmark records (JSON lines written by the harness), metric by
// metric and workload by workload, with the bounds BENCHMARK.json
// fixes:
//
//	cd bench && go run ./compare parent.jsonl change.jsonl
//
// A change improves a metric when there are at least ten pairs (runs of
// one seed on both sides), it wins at least nine tenths of them (ties
// count for neither) and the medians differ by more than the parent's
// interquartile range. It regresses a metric when its median is worse
// than the parent's by more than the bound. Where either side's spread
// exceeds the bound the metric is unresolved, unless every change run
// reads worse than every parent run and the median by more than the
// bound. Any change to a simulated-statistics digest and any rise in the
// failed share of ops is flagged.
//
// The exit status is 1 when anything regressed or was flagged, 2 when
// the records cannot be compared (different GOMAXPROCS or CPU count),
// and 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"agilepower/bench/internal/ledger"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

// benchmark is the part of BENCHMARK.json the comparator reads.
type benchmark struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judgement is one workload × metric row.
type judgement struct {
	parentMed, changeMed float64
	// worse is the change's median shortfall as a share of the parent's
	// (negative when the change is better).
	worse float64
	// spread is the larger of the two sides' interquartile range as a
	// share of their median.
	spread      float64
	wins, pairs int
	verdict     verdict
}

// judge applies the pair rule and the bound to one metric. parent and
// change hold every run's value; pairs holds (parent, change) values of
// the runs that share a seed.
func judge(m metricSpec, parent, change []float64, pairs [][2]float64) judgement {
	j := judgement{parentMed: ledger.Median(parent), changeMed: ledger.Median(change), pairs: len(pairs)}
	dir := 1.0 // +1: lower is better
	if m.Better == "higher" {
		dir = -1
	}
	j.worse = dir * (j.changeMed - j.parentMed) / j.parentMed
	for _, p := range pairs {
		if dir*(p[0]-p[1]) > 0 {
			j.wins++ // a tie counts for neither side
		}
	}
	pq1, pq3 := ledger.Quartiles(parent)
	cq1, cq3 := ledger.Quartiles(change)
	j.spread = math.Max((pq3-pq1)/j.parentMed, (cq3-cq1)/j.changeMed)
	allWorse := true
	for _, c := range change {
		for _, p := range parent {
			if dir*(c-p) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case len(pairs) == 0 || math.IsNaN(j.worse):
		j.verdict = unresolved
	case len(pairs) >= minPairs && 10*j.wins >= 9*len(pairs) && j.worse < 0 && math.Abs(j.changeMed-j.parentMed) > pq3-pq1:
		j.verdict = improved
	case j.spread > m.Bound && !(allWorse && j.worse > m.Bound):
		j.verdict = unresolved
	case j.worse > m.Bound:
		j.verdict = regressed
	default:
		j.verdict = unchanged
	}
	return j
}

// side is one set of records, split by workload.
type side map[string][]ledger.Record

func load(path string) (side, error) {
	recs, err := ledger.Read(path)
	if err != nil {
		return nil, err
	}
	s := side{}
	for _, r := range recs {
		if !r.Trace { // traced records carry per-layer metrics only
			s[r.Workload] = append(s[r.Workload], r)
		}
	}
	return s, nil
}

// machine returns the one (GOMAXPROCS, NumCPU) shape every record
// shares, or an error.
func machine(sides ...side) (string, error) {
	shape := ""
	for _, s := range sides {
		for _, recs := range s {
			for _, r := range recs {
				sh := fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d", r.GOMAXPROCS, r.NumCPU)
				if shape != "" && sh != shape {
					return "", fmt.Errorf("records from different machines (%s vs %s) cannot be compared", shape, sh)
				}
				shape = sh
			}
		}
	}
	return shape, nil
}

// values returns each record's value of metric, and the seeds they ran.
func values(recs []ledger.Record, metric string) (vals []float64, bySeed map[uint64][]float64) {
	bySeed = map[uint64][]float64{}
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], m.Value)
		}
	}
	return vals, bySeed
}

// pairUp matches parent and change runs of the same seed, in order.
func pairUp(p, c map[uint64][]float64) [][2]float64 {
	var seeds []uint64
	for s := range p {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var pairs [][2]float64
	for _, s := range seeds {
		for i := 0; i < len(p[s]) && i < len(c[s]); i++ {
			pairs = append(pairs, [2]float64{p[s][i], c[s][i]})
		}
	}
	return pairs
}

// flags lists what the change altered beyond timing: simulated-statistics
// digests that differ on a seed and input both sides ran, and a rise in
// the failed share of ops.
func flags(workload string, parent, change []ledger.Record) []string {
	var out []string
	digests := map[uint64][]string{}
	for _, r := range parent {
		digests[r.Seed] = r.Digests
	}
	changed := map[string]bool{}
	for _, r := range change {
		for i, d := range r.Digests {
			if p := digests[r.Seed]; i < len(p) && p[i] != "" && d != "" && p[i] != d {
				key := fmt.Sprintf("seed %d input %d", r.Seed, i)
				if !changed[key] {
					changed[key] = true
					out = append(out, fmt.Sprintf("%s: simulated output changed (%s)", workload, key))
				}
			}
		}
	}
	frac := func(recs []ledger.Record) float64 {
		var a, f int
		for _, r := range recs {
			a += r.Attempted
			f += r.Failed
		}
		if a == 0 {
			return 0
		}
		return float64(f) / float64(a)
	}
	if pf, cf := frac(parent), frac(change); cf > pf {
		out = append(out, fmt.Sprintf("%s: failed share of ops rose from %.4g to %.4g", workload, pf, cf))
	}
	return out
}

// compare writes the table and flags and returns the exit status.
func compare(w io.Writer, bench benchmark, parent, change side) int {
	shape, err := machine(parent, change)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "machine: %s\n", shape)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse\tspread\tbound\twins/pairs\tverdict\t")
	status := 0
	var notes []string
	for _, wl := range bench.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(c) == 0 {
			notes = append(notes, fmt.Sprintf("%s: no records on one side (parent %d, change %d)", wl.Name, len(p), len(c)))
			continue
		}
		for _, m := range bench.EndToEnd {
			pv, ps := values(p, m.Name)
			cv, cs := values(c, m.Name)
			j := judge(m, pv, cv, pairUp(ps, cs))
			if j.verdict == regressed {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\t\n",
				wl.Name, m.Name, j.parentMed, m.Unit, j.changeMed, m.Unit, 100*j.worse,
				100*j.spread, 100*m.Bound, j.wins, j.pairs, j.verdict)
		}
		if f := flags(wl.Name, p, c); len(f) > 0 {
			status = 1
			notes = append(notes, f...)
		}
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return status
}

func main() {
	benchPath := flag.String("benchmark", "../BENCHMARK.json", "the benchmark definition holding the metric bounds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	var bench benchmark
	if err := json.Unmarshal(data, &bench); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *benchPath, err)
		os.Exit(2)
	}
	parent, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	change, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(compare(os.Stdout, bench, parent, change))
}
