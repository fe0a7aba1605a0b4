package core

import (
	"fmt"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

func benchItems(n int, rng *sim.RNG) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Key:     i,
			CPU:     rng.Range(0.2, 2.5),
			MemGB:   rng.Range(2, 16),
			Current: rng.Intn(32) + 1,
		}
	}
	return items
}

func benchBins(n int) []Bin {
	bins := make([]Bin, n)
	for i := range bins {
		bins[i] = Bin{Key: i + 1, CPUCap: 16 * 0.7, MemCap: 256}
	}
	return bins
}

// BenchmarkPackFFD packs 200 VMs into 32 hosts, the planner's inner
// loop at the paper's cluster scale.
func BenchmarkPackFFD(b *testing.B) {
	items := benchItems(200, sim.NewRNG(1))
	bins := benchBins(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Pack(items, bins, PackFFD); !ok {
			b.Fatal("pack failed")
		}
	}
}

// BenchmarkPackBFD is the best-fit variant of the same packing.
func BenchmarkPackBFD(b *testing.B) {
	items := benchItems(200, sim.NewRNG(1))
	bins := benchBins(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Pack(items, bins, PackBFD); !ok {
			b.Fatal("pack failed")
		}
	}
}

// boundPrefix returns the shortest prefix of bins whose aggregate CPU
// and memory hold the items: the first prefix the minimal-host search
// packs.
func boundPrefix(items []Item, bins []Bin) int {
	needCPU, needMem := 0.0, 0.0
	for _, it := range items {
		needCPU += it.CPU
		needMem += it.MemGB
	}
	cumCPU, cumMem := 0.0, 0.0
	for k, bin := range bins {
		cumCPU += bin.CPUCap
		cumMem += bin.MemCap
		if cumCPU+1e-9 >= needCPU && cumMem+1e-9 >= needMem {
			return k + 1
		}
	}
	return len(bins) + 1
}

// BenchmarkMinBins measures the minimal-host search (the scale-down
// decision) at 200 VMs / 32 hosts on a reused packer, as packServing
// runs it: each op puts the bins back in their starting state and
// searches. In first-prefix, the first prefix the capacity bound
// allows packs, so the op is one pack. In anti-affinity, six
// 30-replica groups need at least 30 hosts where the capacity bound
// allows 25: the search packs and fails the prefixes 25 to 31 and
// packs at 32, eight packs an op.
func BenchmarkMinBins(b *testing.B) {
	groups := benchItems(200, sim.NewRNG(1))
	for i := range groups[:180] {
		groups[i].Group = fmt.Sprintf("svc-%d", i%6)
	}
	for _, tc := range []struct {
		name  string
		items []Item
	}{
		{"first-prefix", benchItems(200, sim.NewRNG(1))},
		{"anti-affinity", groups},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bins := benchBins(32)
			var p packer
			home := p.load(tc.items, bins)
			search := func() int {
				states := p.resetBins(len(bins))
				for j, bin := range bins {
					states[j].key, states[j].cpuCap, states[j].memCap = bin.Key, bin.CPUCap, bin.MemCap
				}
				k, ok := p.minBins(tc.items, home, PackFFD)
				if !ok {
					b.Fatal("minbins failed")
				}
				return k
			}
			// Set-up pins each case's shape: the prefixes the search packs
			// run from the bound's to the one it returns.
			k, first := search(), boundPrefix(tc.items, bins)
			if searches := k > first; searches != (tc.name == "anti-affinity") {
				b.Fatalf("%s packed at prefix %d, the capacity bound's is %d", tc.name, k, first)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search()
			}
		})
	}
}

// BenchmarkManagerControlStep measures one full manager control period
// (forecast, place, power decisions, drain, balance) over a 32-host /
// 160-VM cluster under the paper's DPM-S3 policy — the management
// plane's hot path.
func BenchmarkManagerControlStep(b *testing.B) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 160; i++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(i%32+1)); err != nil {
			b.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: DPMS3})
	if err != nil {
		b.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step()
	}
}

// BenchmarkPeakWindowForecast measures the forecaster's sliding-window
// maintenance over a day of minute samples.
func BenchmarkPeakWindowForecast(b *testing.B) {
	rng := sim.NewRNG(1)
	samples := make([]float64, 1440)
	for i := range samples {
		samples[i] = rng.Range(0, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := ForecastSpec{Kind: ForecastPeakWindow}.New()
		for j, v := range samples {
			f.Observe(sim.Time(j)*sim.Time(60_000_000_000), v)
		}
		if f.Forecast() < 0 {
			b.Fatal("negative forecast")
		}
	}
}

// hyperscaleWorld builds a never-started 16,384-host / 131,072-VM
// fleet: a quiescent majority on constant demand with a diurnal
// minority (every VM on every eighth host) sharing a pooled trace set.
func hyperscaleWorld(b *testing.B) (*sim.Engine, *cluster.Cluster) {
	b.Helper()
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const nHosts = 16384
	for i := 0; i < nHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	diurnal := make([]*workload.Trace, 256)
	for i := range diurnal {
		diurnal[i] = workload.Diurnal(rng.Fork(), workload.DiurnalSpec{
			BaseCores: 0.3, PeakCores: 1.2,
		})
	}
	constant := []*workload.Trace{
		workload.Constant(1.60), workload.Constant(1.65),
		workload.Constant(1.70), workload.Constant(1.75),
	}
	for i := 0; i < nHosts*8; i++ {
		hid := host.ID(i%nHosts + 1)
		var tr *workload.Trace
		if (int(hid)-1)%8 == 0 {
			tr = diurnal[i%len(diurnal)]
		} else {
			tr = constant[i%len(constant)]
		}
		if _, err := cl.AddVM(vm.Config{VCPUs: 2, MemoryGB: 8, Trace: tr}, hid); err != nil {
			b.Fatal(err)
		}
	}
	return eng, cl
}

// hyperscaleManagerFixture runs the hyperscale world in steady state
// under a manager. The demand levels are chosen so the control step
// observes everything but actuates nothing — per-host load (≈13.4
// cores) sits under the 0.90·16 load-balance threshold, fleet demand
// under the 0.85 wake threshold, and above the Σ 0.70·16 packing
// capacity so MinBins proves consolidation infeasible without packing
// — which is exactly the regime where incremental planning must win:
// churn is near zero while the fleet is enormous.
func hyperscaleManagerFixture(b *testing.B, incremental bool) (*sim.Engine, *Manager) {
	b.Helper()
	eng, cl := hyperscaleWorld(b)
	m, err := newManager(cl, Config{Policy: DPMS3}, incremental)
	if err != nil {
		b.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	return eng, m
}

// mixedFleetWorld builds a never-started 512-host / 4,096-VM world in
// the root package's MixedFleet proportions and trace parameters — 60%
// diurnal web VMs, 25% spiky API VMs sharing four flash crowds, 15%
// batch VMs — on the end-to-end benchmark's fleet-static hosts (384 ×
// 16 cores, 128 × 32 cores).
func mixedFleetWorld(b *testing.B) (*sim.Engine, *cluster.Cluster) {
	b.Helper()
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		cfg := host.Config{Cores: 16, MemoryGB: 256}
		if i >= 384 {
			cfg = host.Config{Cores: 32, MemoryGB: 512}
		}
		if _, err := cl.AddHost(cfg); err != nil {
			b.Fatal(err)
		}
	}
	const n = 4096
	nWeb, nAPI := n*60/100, n*25/100
	rng := sim.NewRNG(7)
	starts := make([]time.Duration, 4)
	for i := range starts {
		starts[i] = time.Duration(rng.Float64() * float64(24*time.Hour))
	}
	for i := 0; i < n; i++ {
		var tr *workload.Trace
		switch {
		case i < nWeb:
			tr = workload.Diurnal(rng.Fork(), workload.DiurnalSpec{
				BaseCores: 0.4, PeakCores: 3.0, NoiseFrac: 0.08, PhaseJitter: 90 * time.Minute,
			})
		case i < nWeb+nAPI:
			tr = workload.Spiky(rng.Fork(), workload.SpikeSpec{
				BaseCores: 0.3, SpikeCores: 4, SpikeLen: 15 * time.Minute,
				Starts: starts, StartJitter: 2 * time.Minute,
			})
		default:
			tr = workload.Batch(rng.Fork(), workload.BatchSpec{
				IdleCores: 0.1, RunCores: 4, Period: 6 * time.Hour, RunLen: time.Hour,
			})
		}
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(i%512+1)); err != nil {
			b.Fatal(err)
		}
	}
	return eng, cl
}

// BenchmarkForecastUpkeep measures the manager's forecast upkeep as
// simulated time moves: each op advances the clock by one evaluation
// step and records an invocation there (noteInvocation). In the plain
// cases every invocation reads the forecasts, so the VMs whose demand
// changed or whose peak-window head expired fall due and are caught
// up; on the mixed fleet every diurnal VM is due each minute, on the
// hyperscale fleet only the diurnal eighth is. In read-every-5 four
// invocations read nothing and the fifth catches the due VMs up over
// all five, the pattern of nopm-drm, whose control step alone reads.
// Neither world is started, so the op is the upkeep alone, trace reads
// included, with no evaluation tick beside it.
func BenchmarkForecastUpkeep(b *testing.B) {
	for _, w := range []struct {
		name  string
		build func(*testing.B) (*sim.Engine, *cluster.Cluster)
		every int // invocations per read
	}{
		{"mixed-4096", mixedFleetWorld, 1},
		{"mixed-4096-read-every-5", mixedFleetWorld, 5},
		{"hyperscale-131072", hyperscaleWorld, 1},
	} {
		b.Run(w.name, func(b *testing.B) {
			eng, cl := w.build(b)
			m, err := NewManager(cl, Config{Policy: DPMS3})
			if err != nil {
				b.Fatal(err)
			}
			step := cl.EvalStep()
			n := 0
			invoke := func() {
				m.noteInvocation()
				if n++; n%w.every == 0 {
					m.forecasts()
				}
			}
			// Warm up for an hour so every peak window is full.
			for eng.Now() < time.Hour {
				invoke()
				eng.RunUntil(eng.Now() + step)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunUntil(eng.Now() + step)
				invoke()
			}
		})
	}
}

// BenchmarkManagerControlStepHyperscale measures one steady-state
// control period over the 16,384-host fleet, full-scan ("eager") vs
// incremental planning. The incremental run must also be allocation
// free — CI gates on both (see make bench-manager-smoke).
func BenchmarkManagerControlStepHyperscale(b *testing.B) {
	for _, mode := range []struct {
		name string
		inc  bool
	}{
		{"eager", false},
		{"incremental", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			_, m := hyperscaleManagerFixture(b, mode.inc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step()
			}
		})
	}
}
