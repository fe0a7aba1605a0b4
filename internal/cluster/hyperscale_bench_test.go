package cluster

import (
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// buildHyperscaleCluster assembles the quiescent-majority fixture the
// hyperscale benchmarks measure: 16,384 hosts carrying 131,072 VMs,
// drawing demand from a small shared trace pool. The first eighth of
// the fleet holds the diurnal VMs (15-minute sampling, so those hosts
// see a demand edge once per fifteen 1-minute ticks); the rest hold
// constant-demand VMs and never need re-evaluation after priming —
// the >80%-quiescent population shape of a consolidated datacenter
// trough, matching the hyperscale experiment's trough-heavy variant.
func buildHyperscaleCluster(b *testing.B) (*sim.Engine, *Cluster) {
	b.Helper()
	const (
		hosts     = 16384
		perHost   = 8
		churnCut  = hosts / 8 // hosts 1..churnCut get diurnal VMs
		poolSize  = 256
		traceIvl  = 15 * time.Minute
		horizonHr = 30 * 24
	)
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: horizonHr * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	pool := make([]*workload.Trace, poolSize)
	for i := range pool {
		pool[i] = workload.Diurnal(rng.Fork(), workload.DiurnalSpec{
			Interval:  traceIvl,
			BaseCores: 0.1, PeakCores: 0.8, NoiseFrac: 0.05,
			PhaseJitter: 90 * time.Minute,
		})
	}
	flat := make([]*workload.Trace, 8)
	for i := range flat {
		flat[i] = workload.Constant(0.1 + 0.05*float64(i))
	}
	n := 0
	for h := 1; h <= hosts; h++ {
		for k := 0; k < perHost; k++ {
			tr := flat[n%len(flat)]
			if h <= churnCut {
				tr = pool[n%len(pool)]
			}
			if _, err := c.AddVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: tr}, host.ID(h)); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	return eng, c
}

// benchHyperscaleTick measures steady-state evaluation ticks with the
// clock advancing one minute per tick, the cadence a real run has —
// so the deadline sweep actually finds the diurnal hosts due on the
// 15-minute demand edges instead of the fixture sitting frozen in
// time. fullScan runs the full-scan oracle instead.
func benchHyperscaleTick(b *testing.B, fullScan bool) {
	eng, c := buildHyperscaleCluster(b)
	c.fullScan = fullScan
	c.startEval()
	defer c.Close()
	now := eng.Now()
	c.evaluate() // prime partials and deadlines
	// Warm through one full 15-minute trace period so every lazy growth
	// path (telemetry series, energy segments, due hosts) has happened
	// before the timer starts; what remains is steady state.
	for i := 0; i < 16; i++ {
		now += sim.Time(time.Minute)
		eng.RunUntil(now)
		c.evaluate()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.Time(time.Minute)
		eng.RunUntil(now)
		c.evaluate()
	}
}

// BenchmarkHyperscaleEvaluateFullScan runs the full-scan oracle: every
// tick rescans all 16,384 hosts and re-schedules all 131,072 VMs.
func BenchmarkHyperscaleEvaluateFullScan(b *testing.B) {
	benchHyperscaleTick(b, true)
}

// BenchmarkHyperscaleEvaluateDelta is the same fixture under the
// event-driven tick (delta evaluation): work per tick is one deadline
// sweep plus the fleet's change volume (an eighth of the hosts, one
// tick in fifteen), with quiescent hosts' energy integrating
// analytically. The BENCH_hyperscale.json record tracks the ratio
// against FullScan; the acceptance bar is >= 10x on this
// quiescent-majority fixture.
func BenchmarkHyperscaleEvaluateDelta(b *testing.B) {
	benchHyperscaleTick(b, false)
}
