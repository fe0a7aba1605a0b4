package cluster

import (
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// BenchmarkSimulatedDay measures substrate throughput: one simulated
// day of an 8-host / 40-VM cluster (no manager) per iteration.
func BenchmarkSimulatedDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		c, err := New(eng, Config{})
		if err != nil {
			b.Fatal(err)
		}
		for h := 0; h < 8; h++ {
			if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
				b.Fatal(err)
			}
		}
		rng := sim.NewRNG(1)
		for v := 0; v < 40; v++ {
			tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
			if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%8+1)); err != nil {
				b.Fatal(err)
			}
		}
		c.Start()
		eng.RunUntil(24 * time.Hour)
		c.Flush()
		if c.TotalEnergy() <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}

// buildScaleCluster assembles the datacenter-scale fixture shared by
// the scale benchmarks: 2,048 heterogeneous hosts and 16,384 diurnal
// VMs, with telemetry series preallocated for horizon.
func buildScaleCluster(b *testing.B, horizon time.Duration) (*sim.Engine, *Cluster) {
	b.Helper()
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: horizon})
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < 2048; h++ {
		cfg := host.Config{Cores: 16, MemoryGB: 256}
		if h%4 == 3 {
			cfg = host.Config{Cores: 32, MemoryGB: 512}
		}
		if _, err := c.AddHost(cfg); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for v := 0; v < 16384; v++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%2048+1)); err != nil {
			b.Fatal(err)
		}
	}
	return eng, c
}

// BenchmarkScaleEvaluate measures evaluation passes over the
// 2,048-host / 16,384-VM fixture:
//
//   - tick: each op advances the clock one EvalStep, firing the tick a
//     run fires, which refreshes the hosts made dirty and those whose
//     demand deadline came (here, with 1-minute traces, every host);
//   - fullscan-oracle: each op evaluates one repeated instant with the
//     full-scan oracle forced, a pass no run takes: otherwise each pass
//     after the first would refresh only the hosts dirtied since the
//     one before, and there are none.
//
// The tick case first runs one simulated day untimed: the traces
// repeat daily, so by then every host has met its peak and grown its
// scheduling scratch, which it otherwise does inside the timed loop
// once b.N reaches the afternoon. Each pass appends one sample to each
// telemetry series, so the fixture's horizon covers the warm-up and
// b.N passes: the series never grow inside the timed loop either, and
// the allocation count is the pass's at any -benchtime.
func BenchmarkScaleEvaluate(b *testing.B) {
	for _, mode := range []string{"tick", "fullscan-oracle"} {
		b.Run(mode, func(b *testing.B) {
			warm := 24 * time.Hour
			if mode != "tick" {
				warm = 0
			}
			eng, c := buildScaleCluster(b, warm+time.Duration(b.N+2)*time.Minute)
			benchEvaluate(b, eng, c, mode, warm)
		})
	}
}

// benchEvaluate starts c and times b.N evaluation passes in the given
// mode (see BenchmarkScaleEvaluate), after running the clock warm (at
// least one tick) untimed in tick mode.
func benchEvaluate(b *testing.B, eng *sim.Engine, c *Cluster, mode string, warm time.Duration) {
	c.fullScan = mode == "fullscan-oracle"
	c.Start()
	step := sim.Time(c.EvalStep())
	if !c.fullScan {
		// One tick first, so every lazy growth path has run.
		eng.RunUntil(max(sim.Time(warm), eng.Now()+step))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.fullScan {
			c.evaluate()
		} else {
			eng.RunUntil(eng.Now() + step)
		}
	}
}

// BenchmarkScaleDay measures a full simulated day of the same fixture
// (no manager): 1,440 evaluation ticks plus trace evaluation for every
// VM — the workload the scale experiment's throughput numbers
// describe.
func BenchmarkScaleDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, c := buildScaleCluster(b, 24*time.Hour)
		c.Start()
		eng.RunUntil(24 * time.Hour)
		c.Flush()
		if c.TotalEnergy() <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}

// BenchmarkClusterEvaluate measures evaluation passes over 256 hosts
// carrying 4,096 diurnal VMs, in the two modes of
// BenchmarkScaleEvaluate: the tick a run fires as the clock advances
// one EvalStep per op, and the full-scan oracle at one repeated
// instant. TelemetryCap holds the four series in fixed memory, so a
// tick costs the pass and not slice growth.
func BenchmarkClusterEvaluate(b *testing.B) {
	for _, mode := range []string{"tick", "fullscan-oracle"} {
		b.Run(mode, func(b *testing.B) {
			const hosts = 256
			eng := sim.NewEngine(1)
			c, err := New(eng, Config{TelemetryCap: 4096})
			if err != nil {
				b.Fatal(err)
			}
			for h := 0; h < hosts; h++ {
				if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
					b.Fatal(err)
				}
			}
			rng := sim.NewRNG(1)
			for v := 0; v < 16*hosts; v++ {
				tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
				if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%hosts+1)); err != nil {
					b.Fatal(err)
				}
			}
			benchEvaluate(b, eng, c, mode, 0)
		})
	}
}

// BenchmarkEvaluateSameInstant measures the pass a migration burst
// runs again and again: two hosts dirtied (here by a DVFS move) and an
// evaluation at the instant the previous pass already covered, on 256
// hosts carrying 4,096 diurnal VMs. TelemetryCap holds the four series
// in fixed memory, so the op costs the pass and not slice growth.
func BenchmarkEvaluateSameInstant(b *testing.B) {
	const hosts = 256
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{TelemetryCap: 4096})
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for v := 0; v < 16*hosts; v++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%hosts+1)); err != nil {
			b.Fatal(err)
		}
	}
	c.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.HostChanged(host.ID(i%hosts + 1))
		c.HostChanged(host.ID((i+hosts/2)%hosts + 1))
		c.evaluate()
	}
}
