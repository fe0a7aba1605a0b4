package core

import (
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

// BenchmarkMinBins measures the minimal-host search (the scale-down
// decision) at 200 VMs / 32 hosts.
func BenchmarkMinBins(b *testing.B) {
	items := benchItems(200, sim.NewRNG(1))
	bins := benchBins(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := MinBins(items, bins, PackFFD); !ok {
			b.Fatal("minbins failed")
		}
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

// hyperscaleManagerFixture builds a 16,384-host / 131,072-VM fleet in
// steady state: a quiescent majority on constant demand with a diurnal
// minority sharing a pooled trace set. The demand levels are chosen so
// the control step observes everything but actuates nothing — per-host
// load (≈13.4 cores) sits under the 0.90·16 load-balance threshold,
// fleet demand under the 0.85 wake threshold, and above the Σ 0.70·16
// packing capacity so MinBins proves consolidation infeasible without
// packing — which is exactly the regime where incremental planning
// must win: churn is near zero while the fleet is enormous.
func hyperscaleManagerFixture(b *testing.B, incremental bool) (*sim.Engine, *Manager) {
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
	m, err := newManager(cl, Config{Policy: DPMS3}, incremental)
	if err != nil {
		b.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	return eng, m
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
