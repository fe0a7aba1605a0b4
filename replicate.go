package agilepower

import (
	"context"
	"fmt"
	"math"

	"agilepower/internal/parallel"
)

// Stat summarizes one metric across replicated runs.
type Stat struct {
	Mean, Std, Min, Max float64
	N                   int
}

func newStat(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	s := Stat{N: len(vals), Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	if len(vals) > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(vals)-1))
	}
	return s
}

// String renders "mean ± std".
func (s Stat) String() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.Std)
}

// Replication aggregates one scenario run under several seeds — the
// statistical-rigor companion to single runs: simulation conclusions
// should not hinge on one random workload draw.
type Replication struct {
	Runs []*Result

	EnergyKWh         Stat
	Satisfaction      Stat
	ViolationFraction Stat
	Migrations        Stat
	PowerActions      Stat
}

// RunReplicated executes the scenario once per seed. When fleet is
// non-nil it regenerates the VM population for each seed (fleet
// builders like DiurnalFleet are deterministic in their seed); when
// nil, the same VMs are reused and only engine-driven randomness
// (churn, jitter) varies. The per-seed runs execute concurrently on
// up to GOMAXPROCS workers; Runs and the aggregate statistics come
// back in seed order regardless of completion order, so the outcome
// is identical to a sequential loop (use RunReplicatedWorkers to pin
// the worker count).
func (s Scenario) RunReplicated(seeds []uint64, fleet func(seed uint64) []VMSpec) (*Replication, error) {
	return s.RunReplicatedWorkers(0, seeds, fleet)
}

// RunReplicatedWorkers is RunReplicated with an explicit concurrency
// bound (workers <= 0 means GOMAXPROCS, 1 means sequential). fleet is
// called once per seed, possibly from different goroutines, so it
// must not capture mutable state; the standard builders (DiurnalFleet
// etc.) derive everything from their seed argument.
func (s Scenario) RunReplicatedWorkers(workers int, seeds []uint64, fleet func(seed uint64) []VMSpec) (*Replication, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("agilepower: replication needs at least one seed")
	}
	// Same-fleet mode reuses one world across seeds: the world is
	// seed-independent (construction consumes no randomness), so it is
	// built once and forked per seed. Per-seed fleets rebuild the world
	// cold, as before.
	var proto *Prototype
	if fleet == nil {
		proto, _ = s.Prototype()
	}
	runs, err := parallel.Map(context.Background(), len(seeds), workers,
		func(_ context.Context, i int) (*Result, error) {
			sc := s
			sc.Seed = seeds[i]
			if fleet != nil {
				sc.VMs = fleet(seeds[i])
			}
			res, err := runScenario(proto, sc)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %w", seeds[i], err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &Replication{Runs: runs}
	energy := make([]float64, len(runs))
	sat := make([]float64, len(runs))
	viol := make([]float64, len(runs))
	migr := make([]float64, len(runs))
	actions := make([]float64, len(runs))
	for i, res := range runs {
		energy[i] = res.EnergyKWh()
		sat[i] = res.Satisfaction
		viol[i] = res.ViolationFraction
		migr[i] = float64(res.Migrations.Completed)
		actions[i] = float64(res.Sleeps + res.Wakes)
	}
	rep.EnergyKWh = newStat(energy)
	rep.Satisfaction = newStat(sat)
	rep.ViolationFraction = newStat(viol)
	rep.Migrations = newStat(migr)
	rep.PowerActions = newStat(actions)
	return rep, nil
}

// Seeds returns [base, base+1, …, base+n-1], a convenient seed list
// for replication.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}
