package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// runShardScenario simulates an eventful half-day — migrations, a host
// crash with stranded VMs, dynamic arrival/placement, a departure —
// on a cluster configured with the given shard count, and returns the
// cluster for result comparison. A positive workers sets GOMAXPROCS
// for the run, which caps the sharded tick's worker pool at
// min(shards, workers); 0 leaves GOMAXPROCS alone.
func runShardScenario(t testing.TB, shards, workers int) *Cluster {
	t.Helper()
	return runEvalScenario(t, workers, Config{Shards: shards}, false)
}

// runEvalScenario is runShardScenario with the configuration explicit
// — cfg's Shards, and fullScan for the full-scan oracle — so the
// oracle comparisons share the exact same event sequence.
func runEvalScenario(t testing.TB, workers int, cfg Config, fullScan bool) *Cluster {
	t.Helper()
	if workers > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	eng := sim.NewEngine(1)
	cfg.Horizon = 12 * time.Hour
	c, err := New(eng, cfg)
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
	c.Close()
	return c
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

// TestShardedEvaluateBitIdentical is the determinism core of the
// sharded tick: every telemetry series, the aggregate SLA, energy, and
// stranded-time accounting must be bit-for-bit identical across shard
// counts {1, 2, 4} × worker counts {1, 3}, and identical to the
// serial (shards = 0) path.
func TestShardedEvaluateBitIdentical(t *testing.T) {
	ref := runShardScenario(t, 0, 0)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				got := runShardScenario(t, shards, workers)
				sameSeries(t, "power", ref.PowerSeries(), got.PowerSeries())
				sameSeries(t, "demand", ref.DemandSeries(), got.DemandSeries())
				sameSeries(t, "delivered", ref.DeliveredSeries(), got.DeliveredSeries())
				sameSeries(t, "active", ref.ActiveHostSeries(), got.ActiveHostSeries())
				if ra, ga := *ref.AggregateSLA(), *got.AggregateSLA(); ra != ga {
					t.Fatalf("aggregate SLA differs: %+v vs %+v", ra, ga)
				}
				if re, ge := ref.TotalEnergy(), got.TotalEnergy(); re != ge {
					t.Fatalf("energy differs: %v vs %v", re, ge)
				}
				if rs, gs := ref.StrandedVMSeconds(), got.StrandedVMSeconds(); rs != gs {
					t.Fatalf("stranded VM·s differs: %v vs %v", rs, gs)
				}
			})
		}
	}
}

// TestShardsClampedToHostCount checks that asking for more shards than
// hosts degrades gracefully (one single-host shard each) and still
// matches the serial results.
func TestShardsClampedToHostCount(t *testing.T) {
	ref := runShardScenario(t, 0, 0)
	got := runShardScenario(t, 64, 64)
	sameSeries(t, "power", ref.PowerSeries(), got.PowerSeries())
	if n := len(got.shardBounds); n != 8 {
		t.Fatalf("shard count = %d, want clamped to 8 hosts", n)
	}
	for i, b := range got.shardBounds {
		if b.hi-b.lo != 1 {
			t.Fatalf("shard %d spans %d hosts, want 1", i, b.hi-b.lo)
		}
	}
}

// TestEvaluateAfterCloseFallsBackSerial checks that Close is safe to
// call before the last evaluation: later ticks take the serial branch
// instead of deadlocking on the drained worker pool.
func TestEvaluateAfterCloseFallsBackSerial(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(1)}, 1); err != nil {
		t.Fatal(err)
	}
	c.Start()
	eng.RunUntil(10 * time.Minute)
	c.Close()
	c.Close() // idempotent
	eng.RunUntil(20 * time.Minute)
	c.Flush()
	if c.PowerSeries().Len() == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestShardedEvaluateSteadyStateAllocFree re-runs the PR 3 allocation
// gate against the sharded path: with the partition built and the
// workers parked, a steady-state tick must stay off the heap —
// dispatch and completion ride preallocated buffered channels, and
// every partial lands in a preallocated per-host slot.
func TestShardedEvaluateSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 30 * 24 * time.Hour, Shards: 4})
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
	// Build the partition and worker pool without scheduling the
	// periodic tick, so the clock can be advanced manually and each
	// measured run is exactly one sharded evaluation.
	c.startEval()
	if len(c.shardBounds) != 4 {
		t.Fatalf("shard count = %d, want 4", len(c.shardBounds))
	}
	now := eng.Now()
	c.evaluate()
	now += sim.Time(time.Minute)
	eng.RunUntil(now)
	c.evaluate()

	avg := testing.AllocsPerRun(200, func() {
		now += sim.Time(time.Minute)
		eng.RunUntil(now)
		c.evaluate()
	})
	if avg != 0 {
		t.Fatalf("sharded steady-state evaluate allocates %.2f times per tick, want 0", avg)
	}
	c.Close()
}
