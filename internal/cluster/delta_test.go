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
// evaluation, the event-driven tick: the eventful half-day scenario
// (migration, crash, arrival, departure) must produce bit-identical
// telemetry, SLA, energy and stranded accounting for every shard and
// worker count, compared to the serial full-scan oracle.
func TestDeltaEvaluateBitIdentical(t *testing.T) {
	ref := runEvalScenario(t, 0, Config{}, true)
	for _, shards := range []int{0, 1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("delta/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				got := runEvalScenario(t, workers, Config{Shards: shards}, false)
				sameClusterResults(t, ref, got)
			})
		}
	}
}

// sameEvents compares two finished clusters' event logs entry by
// entry.
func sameEvents(t *testing.T, ref, got *Cluster) {
	t.Helper()
	re, ge := ref.Events().All(), got.Events().All()
	if len(re) != len(ge) {
		t.Fatalf("event log: %d events vs %d", len(re), len(ge))
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Fatalf("event %d differs: %v vs %v", i, re[i], ge[i])
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
// plateau-heavy fleet the tick must evaluate exactly the hosts whose
// residents' demand can have moved, while producing the same bytes as
// the full scan. Without this gate the tick could silently degenerate
// into a full scan and every perf claim would rot.
func TestDeltaSkipsQuiescentHosts(t *testing.T) {
	run := func(fullScan bool) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour}, 16, 96)
		c.fullScan = fullScan
		c.Start()
		eng.RunUntil(6 * time.Hour)
		c.Flush()
		c.Close()
		return c
	}
	ref := run(true)
	got := run(false)
	sameClusterResults(t, ref, got)

	// The Start pass and one tick a minute for six hours are the passes
	// at a new instant; the Flush lands on the last tick's instant with
	// no host dirtied since.
	const passes = 6*60 + 1 + 1
	rTicks, rEvals := ref.EvalCounts()
	ticks, evals := got.EvalCounts()
	if rTicks != passes || ticks != passes {
		t.Fatalf("passes: oracle %d, tick %d; want %d each", rTicks, ticks, passes)
	}
	if rEvals != passes*16 {
		t.Fatalf("full-scan oracle evaluated %d host-slots over %d passes, want %d", rEvals, rTicks, passes*16)
	}
	// VM v sits on host v%16+1, so the odd-numbered hosts carry only
	// one-sample constant traces (never due) and the eight even-numbered
	// hosts carry the 15-minute diurnals, whose memo entries end on
	// every quarter-hour. Each host is evaluated at the Start pass, and
	// each diurnal host again at each of the 24 quarter-hours in 6 h:
	// 16 + 8×24 = 208 of the oracle's 5,792 host-slots.
	if want := int64(16 + 8*24); evals != want {
		t.Fatalf("evaluated %d of %d host-slots, want %d", evals, rEvals, want)
	}
}

// TestFlushAfterCloseDeltaKeepsTailAccounting is the regression test
// for the Flush/Close ordering bug class: a Flush issued after Close
// must force a full (direct) evaluation pass so the final report
// includes the analytically integrated tail — energy and SLA accrued
// since each quiescent host's last re-evaluation. Both orderings must
// produce the full-scan oracle's exact bytes.
func TestFlushAfterCloseDeltaKeepsTailAccounting(t *testing.T) {
	type mode struct{ closeFirst, fullScan bool }
	run := func(m mode) *Cluster {
		eng := sim.NewEngine(1)
		c := buildQuiescentCluster(t, eng, Config{Horizon: 6 * time.Hour, Shards: 2}, 16, 96)
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
	for _, m := range []mode{{}, {closeFirst: true}} {
		sameClusterResults(t, ref, run(m))
	}
}

// TestDeltaSteadyStateAllocFree extends the allocation gate to the
// event-driven tick: dirty-queue drains, the deadline sweep and run
// coalescing must all ride preallocated storage. Demand edges fire
// every 15 minutes, so the measured window includes ticks that refresh
// the due hosts as well as ticks that skip everything.
func TestDeltaSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c := buildQuiescentCluster(t, eng,
		Config{Horizon: 30 * 24 * time.Hour, Shards: 4}, 16, 96)
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
		t.Fatalf("steady-state evaluate allocates %.2f times per tick, want 0", avg)
	}
	c.Close()
}

// TestEvalCountsCoverAllPaths pins the diagnostics counters exactly:
// every host at the Start pass, the due hosts at a pass at a new
// instant, only the hosts dirtied since at a pass on the previous
// pass's instant, and every host on the direct (post-Close) path.
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
	// VM v sits on host v%4+1: hosts 1 and 3 carry one-sample constant
	// traces and are never due; hosts 2 and 4 carry 15-minute diurnals,
	// due at 15 and 30 minutes. So: 4 at Start, 2 diurnal hosts × 2
	// quarter-hours, host 2 at the Flush, and 4 on the direct path.
	if want := int64(4 + 2*2 + 1 + 4); evals != want {
		t.Fatalf("counted %d host evals over %d passes on 4 hosts, want %d", evals, ticks, want)
	}
}
