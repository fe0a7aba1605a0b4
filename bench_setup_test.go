package agilepower

// World-construction cost: cold Start versus Prototype.Fork.
//
// Every cell of an experiment grid used to rebuild its world from
// scratch — host construction, power machines, initial placement —
// before simulating a single second. The snapshot/fork layer pays that
// once per grid: Prototype() builds the world, Fork() stamps out each
// cell as flat slice copies.
//
// Two views are recorded, at the hyperscale experiment's quick scale
// (256 hosts / 4096 VMs) and at the 16384-host / 131072-VM fixture the
// delta-evaluation and incremental-planning reworks are gated on:
//
//   - BenchmarkWorldBuildVsFork isolates per-cell world construction —
//     the work the snapshot layer moves out of the per-cell path. The
//     acceptance bar for the rework is fork >= 5x cheaper than cold.
//   - BenchmarkWorldForkVsColdStart is end-to-end session creation
//     (world + manager + start-of-time evaluation); the start-of-time
//     work runs per cell on both paths, so the ratio is lower by that
//     shared floor.
//
// `make bench-setup` captures both into BENCH_setup.json.

import (
	"testing"
	"time"

	"agilepower/internal/sim"
)

// setupSizes are the two fixture scales the setup artifact records.
var setupSizes = []struct {
	name       string
	hosts, vms int
}{
	{"quick-256h-4096vm", 256, 4096},
	{"hyper-16384h-131072vm", 16384, 131072},
}

// setupScenario mirrors the hyperscale experiment's world shape: a
// homogeneous fleet, capped telemetry, pooled traces.
func setupScenario(hosts, vms int) Scenario {
	return Scenario{
		Name:         "bench-setup",
		Hosts:        hosts,
		VMs:          HyperscaleFleet(vms, 1),
		Horizon:      time.Hour,
		Seed:         1,
		TelemetryCap: 4096,
		Manager:      ManagerConfig{Policy: DPMS3},
	}
}

// BenchmarkWorldBuildVsFork measures per-cell world construction only:
// a full cold build (validation, cluster, hosts, initial placement —
// what Prototype does, and what every cold cell used to redo) versus
// forking the already-built world onto a fresh engine.
func BenchmarkWorldBuildVsFork(b *testing.B) {
	for _, sz := range setupSizes {
		sz := sz
		sc := setupScenario(sz.hosts, sz.vms)
		b.Run("cold/"+sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Prototype(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fork/"+sz.name, func(b *testing.B) {
			proto, err := sc.Prototype()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := proto.cl.Fork(sim.NewEngine(sc.Seed)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchColdStart(b *testing.B, sc Scenario) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		se, err := sc.Start()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		se.Result() // retire the session so iterations stay independent
		b.StartTimer()
	}
}

func benchFork(b *testing.B, sc Scenario) {
	proto, err := sc.Prototype()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		se, err := proto.Fork(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		se.Result()
		b.StartTimer()
	}
}

// BenchmarkWorldForkVsColdStart measures end-to-end session creation —
// the full Start path versus a Fork from a prebuilt Prototype. Both
// sides include the per-cell start-of-time work (manager construction,
// initial evaluation), so the gap here is exactly the world
// construction BenchmarkWorldBuildVsFork isolates.
func BenchmarkWorldForkVsColdStart(b *testing.B) {
	for _, sz := range setupSizes {
		sz := sz
		sc := setupScenario(sz.hosts, sz.vms)
		b.Run("cold/"+sz.name, func(b *testing.B) { benchColdStart(b, sc) })
		b.Run("fork/"+sz.name, func(b *testing.B) { benchFork(b, sc) })
	}
}

// BenchmarkFleetBuild measures generating the VM fleets of the
// end-to-end benchmark's dc-policies and fleet-static workloads, whose
// set-up is almost all this fleet build: DiurnalFleet(2048) and
// MixedFleet(4096), each VM with a private day of one-minute samples
// (the setup fixtures above share pooled traces, so they never
// generate per-VM ones).
func BenchmarkFleetBuild(b *testing.B) {
	for _, fc := range []struct {
		name  string
		fleet func(n int, seed uint64) []VMSpec
		n     int
	}{
		{"diurnal-2048", DiurnalFleet, 2048},
		{"mixed-4096", MixedFleet, 4096},
	} {
		b.Run(fc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if vms := fc.fleet(fc.n, 1); len(vms) != fc.n {
					b.Fatalf("built %d VMs, want %d", len(vms), fc.n)
				}
			}
		})
	}
}
