package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// oracleStarts is the per-VM start loop the candidate path replaced,
// kept as the reference: sources in census order, each source's VMs in
// ascending ID order, every planned evacuee tried — a refusal counted
// for each one that does not start, with no shortcut for a source or
// destination that has no free slot — until the per-step cap is
// reached.
func oracleStarts(m *Manager, evacuating []*host.Host) {
	migrated := 0
	for _, src := range evacuating {
		for _, vid := range src.VMs() {
			if m.cl.Migrating(vid) || m.migrationHeld(vid) || m.migCmdPending(vid) {
				continue
			}
			if m.cfg.MaxMigrationsPerStep > 0 && migrated >= m.cfg.MaxMigrationsPerStep {
				break
			}
			dst, planned := m.drain.dest(vid)
			if !planned {
				continue
			}
			if err := m.startMigration(vid, dst); err != nil {
				m.stats.MigrationsFailed++
				continue
			}
			m.stats.MigrationsConsolidation++
			migrated++
		}
	}
}

// startWorld is a started cluster with random residents, a random
// third of its hosts draining and in-flight migrations that take some
// of the slots, under a manager with the given per-step cap that does
// not run on its own. With hold, one evacuee is on migration backoff;
// with plane, a control plane carries the manager's orders. The same
// seed builds the same world.
func startWorld(t *testing.T, seed uint64, limit int, hold, plane bool) (*cluster.Cluster, *Manager) {
	t.Helper()
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine(seed)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nHosts := rng.Intn(8) + 8
	for i := 0; i < nHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: []float64{16, 32}[rng.Intn(2)], MemoryGB: 128}); err != nil {
			t.Fatal(err)
		}
	}
	groups := []string{"", "", "", "", "", "db", "web"}
	for i := 0; i < nHosts*5; i++ {
		cfg := vm.Config{
			VCPUs:    4,
			MemoryGB: []float64{2, 4, 8}[rng.Intn(3)],
			Trace:    workload.Constant(rng.Range(0.1, 1.5)),
			Group:    groups[rng.Intn(len(groups))],
		}
		for try := 0; try < 8; try++ {
			if _, err := cl.AddVM(cfg, host.ID(rng.Intn(nHosts)+1)); err == nil {
				break
			}
		}
	}
	restore := CheckPlanningRowsForAll()
	m, err := NewManager(cl, Config{Policy: DPMS3, MaxMigrationsPerStep: limit})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if plane {
		cp, err := ctrlplane.New(eng, cl, ctrlplane.Config{CmdDelay: 10 * time.Millisecond}, m.Counters())
		if err != nil {
			t.Fatal(err)
		}
		m.AttachControlPlane(cp)
	}
	m.growVMSlots()
	cl.Start()
	for i := 0; i < nHosts*3; i++ {
		vms := cl.VMs()
		_ = cl.StartMigration(vms[rng.Intn(len(vms))].ID(), host.ID(rng.Intn(nHosts)+1))
	}
	for _, h := range cl.Hosts() {
		if rng.Intn(3) == 0 {
			m.evacuating.add(h.ID())
		}
	}
	if m.evacuating.len() == 0 {
		m.evacuating.add(1)
	}
	m.invalidate()
	if hold {
		var eligible []vm.ID
		for _, v := range cl.VMs() {
			if hid, ok := cl.Placement(v.ID()); ok && m.evacuating.has(hid) && !cl.Migrating(v.ID()) {
				eligible = append(eligible, v.ID())
			}
		}
		if len(eligible) > 0 {
			m.migRetryAt[eligible[rng.Intn(len(eligible))]] = eng.Now() + sim.Time(time.Hour)
		}
	}
	m.noteInvocation()
	return cl, m
}

// TestDrainStartsMatchPerVMLoop holds drainEvacuating's start path to
// the per-VM loop it replaced, on twin random worlds: one runs
// drainEvacuating, the other plans the same drain, runs oracleStarts
// and parks as drainEvacuating does. Both must start the same moves,
// to the same destinations, in the same order (the cluster's event
// log, after the orders a control plane carries have landed), and
// count the same refusals and starts. The worlds cross no per-step cap
// and caps of 1 to 3, a VM on backoff or none, and a control plane or
// none; without plane and backoff drainEvacuating takes the candidate
// path, otherwise its own per-VM loop.
func TestDrainStartsMatchPerVMLoop(t *testing.T) {
	var trials, started, refused, capped int
	for seed := uint64(1); seed <= 12; seed++ {
		for _, limit := range []int{0, 1, 2, 3} {
			for _, hold := range []bool{false, true} {
				for _, plane := range []bool{false, true} {
					name := fmt.Sprintf("seed=%d/cap=%d/hold=%v/plane=%v", seed, limit, hold, plane)
					clA, a := startWorld(t, seed, limit, hold, plane)
					clB, b := startWorld(t, seed, limit, hold, plane)
					c := b.takeCensus()
					if !b.planDrain(b.forecasts(), c) {
						continue // no plan to start: drainEvacuating reclaims a host instead
					}
					a.drainEvacuating()
					oracleStarts(b, c.evacuating)
					b.parkDrained()
					if plane {
						clA.Engine().RunUntil(clA.Engine().Now() + sim.Time(time.Second))
						clB.Engine().RunUntil(clB.Engine().Now() + sim.Time(time.Second))
					}
					got, want := clA.Events().All(), clB.Events().All()
					if !slices.Equal(got, want) {
						t.Fatalf("%s: event logs differ:\n drainEvacuating %v\n per-VM loop     %v", name, got, want)
					}
					if a.stats != b.stats {
						t.Fatalf("%s: drainEvacuating counted %+v, the per-VM loop %+v", name, a.stats, b.stats)
					}
					trials++
					if a.stats.MigrationsConsolidation > 0 {
						started++
					}
					if a.stats.MigrationsFailed > 0 {
						refused++
					}
					if limit > 0 && a.stats.MigrationsConsolidation == limit {
						capped++
					}
				}
			}
		}
	}
	if started == 0 || refused == 0 || capped == 0 {
		t.Fatalf("coverage: %d trials, %d started moves, %d refused some, %d reached the cap; want all > 0",
			trials, started, refused, capped)
	}
	t.Logf("%d trials: %d started moves, %d refused some, %d reached the cap", trials, started, refused, capped)
}
