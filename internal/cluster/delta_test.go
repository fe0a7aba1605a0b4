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
// worker count, compared to the serial full-scan oracle.
func TestDeltaEvaluateBitIdentical(t *testing.T) {
	ref := runEvalScenario(t, 0, Config{}, true)
	for _, shards := range []int{0, 1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("delta/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				got := runEvalScenario(t, workers, Config{Shards: shards, Delta: true}, false)
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
	run := func(delta, fullScan bool) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour, Delta: delta}, 16, 96)
		c.fullScan = fullScan
		c.Start()
		eng.RunUntil(6 * time.Hour)
		c.Flush()
		c.Close()
		return c
	}
	ref := run(false, true)
	full := run(false, false)
	delta := run(true, false)
	sameClusterResults(t, ref, full)
	sameClusterResults(t, ref, delta)

	// The Start pass and one tick a minute for six hours are the passes
	// at a new instant; the Flush lands on the last tick's instant with
	// no host dirtied since.
	const newInstants = 6*60 + 1
	rTicks, rEvals := ref.EvalCounts()
	fTicks, fEvals := full.EvalCounts()
	dTicks, dEvals := delta.EvalCounts()
	if rTicks != newInstants+1 || fTicks != rTicks || dTicks != rTicks {
		t.Fatalf("passes: oracle %d, full %d, delta %d; want %d each", rTicks, fTicks, dTicks, newInstants+1)
	}
	if rEvals != rTicks*16 {
		t.Fatalf("full-scan oracle evaluated %d host-slots over %d passes, want %d", rEvals, rTicks, rTicks*16)
	}
	if fEvals != newInstants*16 {
		t.Fatalf("full mode evaluated %d host-slots, want %d: all 16 hosts at each new instant, none at the Flush", fEvals, newInstants*16)
	}
	// The fleet's demand edges land on 15-minute boundaries while ticks
	// are 1 minute apart, so delta should skip the vast majority of
	// host-slots. Half the bound the workload implies keeps the gate
	// robust to placement details.
	if dEvals*2 > rEvals {
		t.Fatalf("delta evaluated %d of %d host-slots — not skipping quiescent hosts", dEvals, rEvals)
	}
}

// TestFlushAfterCloseDeltaKeepsTailAccounting is the regression test
// for the Flush/Close ordering bug class: a Flush issued after Close
// must force a full (non-delta) evaluation pass so the final report
// includes the analytically integrated tail — energy and SLA accrued
// since each quiescent host's last re-evaluation. Both orderings, delta
// on or off, must produce the full-scan oracle's exact bytes.
func TestFlushAfterCloseDeltaKeepsTailAccounting(t *testing.T) {
	type mode struct{ delta, closeFirst, fullScan bool }
	run := func(m mode) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour, Shards: 2, Delta: m.delta}, 16, 96)
		c.fullScan = m.fullScan
		c.Start()
		// Stop between ticks so open accounting runs and analytic energy
		// segments are live when the books close.
		eng.RunUntil(4*time.Hour + 30*time.Second)
		if m.closeFirst {
			c.Close()
			c.Flush()
		} else {
			c.Flush()
			c.Close()
		}
		return c
	}
	ref := run(mode{fullScan: true})
	for _, m := range []mode{{}, {closeFirst: true}, {delta: true}, {delta: true, closeFirst: true}} {
		sameClusterResults(t, ref, run(m))
	}
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

// TestEvalCountsCoverAllPaths pins the diagnostics counters exactly,
// with delta off: every host at a pass at a new instant, only the
// hosts dirtied since at a pass on the previous pass's instant, and
// every host on the direct (post-Close) path.
func TestEvalCountsCoverAllPaths(t *testing.T) {
	eng := sim.NewEngine(1)
	c := buildQuiescentCluster(t, eng, Config{Horizon: time.Hour}, 4, 8)
	c.Start()
	eng.RunUntil(30 * time.Minute)
	c.HostChanged(2)
	c.Flush() // on the 30-minute tick's instant: host 2 only
	c.Close()
	c.Flush() // direct path: all four hosts
	ticks, evals := c.EvalCounts()
	// The Start pass and 30 ticks are passes at a new instant.
	if ticks != 31+2 {
		t.Fatalf("counted %d passes, want %d", ticks, 31+2)
	}
	if want := int64(31*4 + 1 + 4); evals != want {
		t.Fatalf("counted %d host evals over %d passes on 4 hosts, want %d", evals, ticks, want)
	}
}
