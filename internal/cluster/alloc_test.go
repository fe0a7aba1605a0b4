package cluster

import (
	"errors"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/migrate"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// TestEvaluateSteadyStateAllocFree is the allocation regression gate
// for the simulator's hot path: once the cluster is built and the
// telemetry series are preallocated (Horizon), a steady-state
// evaluation tick must not touch the heap. The budget is zero — any
// regression (a per-tick map, a forgotten scratch buffer, a growing
// slice) fails the test outright.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 16; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for v := 0; v < 80; v++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%16+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Prime all scratch buffers and close the first interval, then
	// measure ticks that advance time so the SLA recording path (the
	// dt > 0 branch) is exercised too. The cluster is deliberately not
	// Started: the clock is advanced manually so each measured run is
	// exactly one evaluation.
	now := eng.Now()
	c.evaluate()
	now += sim.Time(time.Minute)
	eng.RunUntil(now)
	c.evaluate()

	avg := testing.AllocsPerRun(200, func() {
		now += sim.Time(time.Minute)
		eng.RunUntil(now) // empty queue: advances the clock only
		c.evaluate()
	})
	if avg != 0 {
		t.Fatalf("steady-state evaluate allocates %.2f times per tick, want 0", avg)
	}
}

// TestEvaluateAllocFreeWithMigrationOverhead covers the evaluate path
// while a migration is in flight (CPU overhead lookups active on both
// ends), which must stay allocation-free as well.
func TestEvaluateAllocFreeWithMigrationOverhead(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 8; v++ {
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 32, Trace: workload.Constant(1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StartMigration(1, 2); err != nil {
		t.Fatal(err)
	}
	c.evaluate()
	// Do not run the engine: the migration completion event must stay
	// queued so the overhead path remains active.
	avg := testing.AllocsPerRun(50, func() {
		c.evaluate()
	})
	if avg != 0 {
		t.Fatalf("evaluate with migration overhead allocates %.2f times per tick, want 0", avg)
	}
}

// TestStartMigrationRejectAllocFree pins the cost of a refused move: a
// draining manager issues hundreds of migration requests that are
// refused for every one that starts, so each refusal must return a
// sentinel error without allocating — for exhausted slots, an
// unavailable destination, too little destination memory, and an
// anti-affinity conflict.
func TestStartMigrationRejectAllocFree(t *testing.T) {
	_, c := newTestCluster(t, 5)
	small := make([]*vm.VM, 5)
	for i := range small {
		small[i] = addVM(t, c, 1, 0.5)
	}
	big, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 48, Trace: workload.Constant(1)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 32, Trace: workload.Constant(1)}, 5); err != nil {
		t.Fatal(err)
	}
	db := groupVM(t, c, 3, "db")
	groupVM(t, c, 5, "db")
	c.Start()
	for _, v := range small[:4] {
		if err := c.StartMigration(v.ID(), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SleepHost(4, power.S3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		vm   vm.ID
		dst  host.ID
		want error
	}{
		{"slots exhausted", small[4].ID(), 3, migrate.ErrHostSaturated},
		{"destination unavailable", db.ID(), 4, ErrDestinationUnavailable},
		{"memory", big.ID(), 5, host.ErrNoMemory},
		{"anti-affinity", db.ID(), 5, ErrGroupConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(100, func() { err = c.StartMigration(tc.vm, tc.dst) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("StartMigration(%d, %d) = %v, want %v", tc.vm, tc.dst, err, tc.want)
			}
			if allocs != 0 {
				t.Fatalf("refused StartMigration allocates %v times, want 0", allocs)
			}
		})
	}
	if n := c.Migrations().Inflight(); n != 4 {
		t.Fatalf("%d migrations in flight after refusals, want the 4 admitted", n)
	}
}
