package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// evalFleet builds the never-started fleet of runEvalScenario: eight
// hosts carrying 24 diurnal VMs. fullScan selects the full-scan oracle.
func evalFleet(t testing.TB, fullScan bool) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.fullScan = fullScan
	for h := 0; h < 8; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(7)
	for v := 0; v < 24; v++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%8+1)); err != nil {
			t.Fatal(err)
		}
	}
	return eng, c
}

// runEvalScenario simulates an eventful half-day — migrations, a host
// crash with stranded VMs, dynamic arrival/placement, a departure — on
// evalFleet, and returns the cluster for result comparison.
func runEvalScenario(t testing.TB, fullScan bool) *Cluster {
	t.Helper()
	eng, c := evalFleet(t, fullScan)
	return driveEvalScenario(t, eng, c)
}

// driveEvalScenario starts c and drives it through runEvalScenario's
// events.
func driveEvalScenario(t testing.TB, eng *sim.Engine, c *Cluster) *Cluster {
	t.Helper()
	c.Start()
	eng.RunUntil(1 * time.Hour)
	if err := c.StartMigration(1, 2); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Hour)
	if err := c.CrashHost(5, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Hour)
	nv, err := c.AddPendingVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(1)})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3*time.Hour + 5*time.Minute)
	if err := c.PlaceVM(nv.ID(), 3); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVM(10); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(12 * time.Hour)
	c.Flush()
	return c
}

// sideBySide runs s copies of run at once, each on its own goroutine,
// and returns their results in order; s = 0 runs one copy on the
// test's goroutine. It gives the evaluation tests' shards=S axes their
// meaning: the tick no longer splits one simulation's hosts across
// goroutines, so evaluation spreads over cores only by running
// simulations side by side, and each must read exactly as it does
// alone. Each copy gets a copyT, so a fatal failure ends only its own
// goroutine, and sideBySide then stops the test.
func sideBySide[T any](t *testing.T, s int, run func(t testing.TB) T) []T {
	t.Helper()
	if s == 0 {
		return []T{run(t)}
	}
	out := make([]T, s)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = run(copyT{t})
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// copyT is the test as a copy's goroutine sees it: Fatal must run on
// the test's own goroutine, so here it reports with Error and ends
// the copy's goroutine.
type copyT struct{ testing.TB }

func (c copyT) Fatal(args ...any) {
	c.Helper()
	c.Error(args...)
	runtime.Goexit()
}

func (c copyT) Fatalf(format string, args ...any) {
	c.Helper()
	c.Errorf(format, args...)
	runtime.Goexit()
}

func sameSeries(t *testing.T, label string, a, b *telemetry.Series) {
	t.Helper()
	ap, bp := a.Points(), b.Points()
	if len(ap) != len(bp) {
		t.Fatalf("%s: %d samples vs %d", label, len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("%s: sample %d differs: %+v vs %+v", label, i, ap[i], bp[i])
		}
	}
}

// TestShardedEvaluateBitIdentical holds simulations that run side by
// side to the same simulation run alone: shards=S forks S copies of one
// pristine evalFleet and drives them through the eventful half-day at
// once (see sideBySide), at GOMAXPROCS W (workers=W). Forks share VM
// objects and traces, so state shared between simulations that is not
// read-only races under -race; every series, the aggregate SLA, energy
// and stranded time must match the cold-built lone run bit for bit.
func TestShardedEvaluateBitIdentical(t *testing.T) {
	ref := runEvalScenario(t, false)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				_, src := evalFleet(t, false)
				src.Events().Share() // as agilepower.Prototype does
				for _, got := range sideBySide(t, shards, func(t testing.TB) *Cluster {
					eng := sim.NewEngine(1)
					fork, err := src.Fork(eng)
					if err != nil {
						t.Fatal(err)
					}
					return driveEvalScenario(t, eng, fork)
				}) {
					sameClusterResults(t, ref, got)
				}
			})
		}
	}
}
