package main

import (
	"strings"
	"testing"

	"agilepower/bench/internal/ledger"
)

var wall = metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}

// runs returns ten runs at seeds 1..10, each base × scale(i).
func runs(base float64, scale func(i int) float64) ([]float64, map[uint64][]float64) {
	var vals []float64
	bySeed := map[uint64][]float64{}
	for i := 0; i < 10; i++ {
		v := base * scale(i)
		vals = append(vals, v)
		bySeed[uint64(i+1)] = []float64{v}
	}
	return vals, bySeed
}

// jitter spreads runs by ±1% around their base.
func jitter(i int) float64 { return 1 + 0.002*float64(i-5) }

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name          string
		m             metricSpec
		parent        func(int) float64
		change        func(int) float64
		parentBase    float64
		changeBase    float64
		want          verdict
		wantWins, pad int
	}{
		{name: "win", m: wall, parent: jitter, change: jitter, parentBase: 1, changeBase: 0.8, want: improved, wantWins: 10},
		{name: "win on a higher-is-better metric", m: metricSpec{Name: "req_per_s", Better: "higher", Bound: 0.1},
			parent: jitter, change: jitter, parentBase: 100, changeBase: 120, want: improved, wantWins: 10},
		{name: "ties count for neither side", m: wall, parent: func(int) float64 { return 1 },
			change: func(i int) float64 {
				if i < 5 {
					return 1 // tie
				}
				return 0.97
			}, parentBase: 1, changeBase: 1, want: unchanged, wantWins: 5},
		{name: "eight of ten is no win", m: wall, parent: jitter,
			change: func(i int) float64 {
				if i < 2 {
					return 1.2
				}
				return 0.9
			}, parentBase: 1, changeBase: 1, want: unchanged, wantWins: 8},
		{name: "within the bound", m: wall, parent: jitter, change: jitter, parentBase: 1, changeBase: 1.05, want: unchanged},
		{name: "beyond the bound", m: wall, parent: jitter, change: jitter, parentBase: 1, changeBase: 1.2, want: regressed},
		{name: "spread beyond the bound is unresolved", m: wall,
			parent: func(i int) float64 { return 0.7 + 0.06*float64(i) }, change: jitter,
			parentBase: 1, changeBase: 1.05, want: unresolved},
		{name: "every run worse despite the spread", m: wall,
			parent: func(i int) float64 { return 0.7 + 0.06*float64(i) }, change: jitter,
			parentBase: 1, changeBase: 2, want: regressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pv, ps := runs(tc.parentBase, tc.parent)
			cv, cs := runs(tc.changeBase, tc.change)
			j := judge(tc.m, pv, cv, pairUp(ps, cs))
			if j.verdict != tc.want {
				t.Errorf("verdict %s, want %s (%+v)", j.verdict, tc.want, j)
			}
			if tc.wantWins != 0 && j.wins != tc.wantWins {
				t.Errorf("wins %d, want %d", j.wins, tc.wantWins)
			}
		})
	}
}

func TestJudgeNeedsTenPairsForAGain(t *testing.T) {
	j := judge(wall, []float64{1, 1.01}, []float64{0.5, 0.51}, [][2]float64{{1, 0.5}, {1.01, 0.51}})
	if j.verdict != unchanged {
		t.Errorf("two winning pairs gave %s, want unchanged", j.verdict)
	}
}

func record(workload string, seed uint64, wall float64, procs int, digest string, failed int) ledger.Record {
	return ledger.Record{
		Schema: ledger.SchemaVersion, Workload: workload, Seed: seed, GOMAXPROCS: procs, NumCPU: procs,
		Metrics:   map[string]ledger.Metric{"wall_s": {Value: wall, Unit: "s"}},
		Attempted: 100, Failed: failed, Correct: failed == 0, Digests: []string{digest},
	}
}

func TestCompare(t *testing.T) {
	bench := benchmark{Workloads: []workloadSpec{{Name: "w"}}, EndToEnd: []metricSpec{wall}}
	sideOf := func(recs ...ledger.Record) side { return side{"w": recs} }
	for _, tc := range []struct {
		name           string
		parent, change side
		status         int
		output         string
	}{
		{"same", sideOf(record("w", 1, 1, 2, "d", 0)), sideOf(record("w", 1, 1.01, 2, "d", 0)), 0, "unchanged"},
		{"regressed", sideOf(record("w", 1, 1, 2, "d", 0)), sideOf(record("w", 1, 1.5, 2, "d", 0)), 1, "regressed"},
		{"digest changed", sideOf(record("w", 1, 1, 2, "d", 0)), sideOf(record("w", 1, 1, 2, "e", 0)), 1, "simulated output changed (seed 1 input 0)"},
		{"more failures", sideOf(record("w", 1, 1, 2, "d", 0)), sideOf(record("w", 1, 1, 2, "d", 3)), 1, "failed share of ops rose"},
		{"different machines", sideOf(record("w", 1, 1, 2, "d", 0)), sideOf(record("w", 1, 1, 4, "d", 0)), 2, "cannot be compared"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := compare(&out, bench, tc.parent, tc.change); got != tc.status {
				t.Errorf("status %d, want %d", got, tc.status)
			}
			if !strings.Contains(out.String(), tc.output) {
				t.Errorf("output lacks %q:\n%s", tc.output, out.String())
			}
		})
	}
}
