package cluster

import (
	"fmt"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// sameClusterResults compares every observable accounting output of
// two finished clusters bit for bit.
func sameClusterResults(t *testing.T, ref, got *Cluster) {
	t.Helper()
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
}

// TestDeltaEvaluateBitIdentical is the determinism core of delta
// evaluation: the eventful half-day scenario (migration, crash,
// arrival, departure) must produce bit-identical telemetry, SLA,
// energy and stranded accounting with delta on, for every shard and
// worker count, compared to the serial full-scan reference.
func TestDeltaEvaluateBitIdentical(t *testing.T) {
	ref := runEvalScenario(t, 0, 0, false)
	for _, shards := range []int{0, 1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("delta/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				got := runEvalScenario(t, shards, workers, true)
				sameClusterResults(t, ref, got)
			})
		}
	}
}

// buildQuiescentCluster assembles a fleet where most demand is
// plateaued: constant traces plus coarse 15-minute diurnals, so a
// 1-minute tick sees an edge on at most one tick in fifteen.
func buildQuiescentCluster(t testing.TB, eng *sim.Engine, cfg Config, hosts, vms int) *Cluster {
	t.Helper()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(3)
	for v := 0; v < vms; v++ {
		var tr *workload.Trace
		if v%2 == 0 {
			tr = workload.Constant(0.2 + 0.1*float64(v%4))
		} else {
			tr = workload.Diurnal(rng.Fork(), workload.DiurnalSpec{
				Interval:  15 * time.Minute,
				BaseCores: 0.1, PeakCores: 0.8, NoiseFrac: 0.05,
				PhaseJitter: 90 * time.Minute,
			})
		}
		if _, err := c.AddVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: tr}, host.ID(v%hosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDeltaSkipsQuiescentHosts pins the point of the machinery: on a
// plateau-heavy fleet the delta tick must evaluate only a small
// fraction of host slots, while producing the same bytes as the full
// scan. Without this gate the delta path could silently degenerate
// into a full scan and every perf claim would rot.
func TestDeltaSkipsQuiescentHosts(t *testing.T) {
	run := func(delta bool) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour, Delta: delta}, 16, 96)
		c.Start()
		eng.RunUntil(6 * time.Hour)
		c.Flush()
		c.Close()
		return c
	}
	full := run(false)
	delta := run(true)
	sameClusterResults(t, full, delta)

	fTicks, fEvals := full.EvalCounts()
	dTicks, dEvals := delta.EvalCounts()
	if fTicks != dTicks {
		t.Fatalf("tick counts differ: full %d vs delta %d", fTicks, dTicks)
	}
	if fEvals < fTicks*16 {
		t.Fatalf("full mode evaluated %d host-slots over %d ticks, want >= %d", fEvals, fTicks, fTicks*16)
	}
	// The fleet's demand edges land on 15-minute boundaries while ticks
	// are 1 minute apart, so delta should skip the vast majority of
	// host-slots. Half the bound the workload implies keeps the gate
	// robust to placement details.
	if dEvals*2 > fEvals {
		t.Fatalf("delta evaluated %d of %d host-slots — not skipping quiescent hosts", dEvals, fEvals)
	}
}

// TestFlushAfterCloseDeltaKeepsTailAccounting is the regression test
// for the Flush/Close ordering bug class: a Flush issued after Close
// must force a full (non-delta) evaluation pass so the final report
// includes the analytically integrated tail — energy and SLA accrued
// since each quiescent host's last re-evaluation. Both orderings must
// produce the full-scan reference's exact bytes.
func TestFlushAfterCloseDeltaKeepsTailAccounting(t *testing.T) {
	run := func(delta bool, closeFirst bool) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour, Shards: 2, Delta: delta}, 16, 96)
		c.Start()
		// Stop between ticks so open accounting runs and analytic energy
		// segments are live when the books close.
		eng.RunUntil(4*time.Hour + 30*time.Second)
		if closeFirst {
			c.Close()
			c.Flush()
		} else {
			c.Flush()
			c.Close()
		}
		return c
	}
	ref := run(false, false)
	sameClusterResults(t, ref, run(true, false))
	sameClusterResults(t, ref, run(true, true))
	sameClusterResults(t, ref, run(false, true))
}

// TestDeltaSteadyStateAllocFree extends the allocation gate to the
// delta machinery: dirty-queue drains, due-heap updates and run
// coalescing must all ride preallocated storage. Demand edges fire
// every 15 minutes, so the measured window includes ticks that drain
// the due-heaps as well as ticks that skip everything.
func TestDeltaSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c := buildQuiescentCluster(t, eng,
		Config{Horizon: 30 * 24 * time.Hour, Shards: 4, Delta: true}, 16, 96)
	c.startEval()
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
		t.Fatalf("delta steady-state evaluate allocates %.2f times per tick, want 0", avg)
	}
	c.Close()
}

// TestEvalCountsCoverAllPaths sanity-checks the diagnostics counters:
// full mode accounts every host every tick, and the direct (pre-Start
// / post-Close) path is counted too.
func TestEvalCountsCoverAllPaths(t *testing.T) {
	eng := sim.NewEngine(1)
	c := buildQuiescentCluster(t, eng, Config{Horizon: time.Hour}, 4, 8)
	c.Start()
	eng.RunUntil(30 * time.Minute)
	c.Flush()
	c.Close()
	ticks, evals := c.EvalCounts()
	if ticks == 0 {
		t.Fatal("no ticks counted")
	}
	if evals < ticks*4 {
		t.Fatalf("full mode counted %d host evals over %d ticks on 4 hosts, want >= %d", evals, ticks, ticks*4)
	}
}
