package cluster

import (
	"fmt"
	"testing"
	"time"

	"agilepower/internal/events"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// sameInstantHosts is the fleet size of runSameInstantScenario.
const sameInstantHosts = 8

// runSameInstantScenario drives an eight-host fleet through bursts of
// events that land on an instant an evaluation pass has already
// covered: two migration starts from different sources on a tick's
// instant (same size, so they finish together), a DVFS move and a
// demand surge on that instant, a migration aborted by its
// destination's crash and the repair settling on a tick's instant, a
// park and a wake, an arrival placed and a departure on one tick's
// instant, the surge's end and a crash with no move in flight on
// another, and a Flush on the last tick's instant. cfg supplies Shards
// and Delta; fullScan selects the full-scan oracle. With delta off,
// wantEvals is the exact per-host evaluation count: every host at a
// pass at a new instant, and the hosts dirtied since the previous pass
// (as the OnHostDirty feed saw them) at a pass on its instant.
func runSameInstantScenario(t *testing.T, cfg Config, fullScan bool) (c *Cluster, wantEvals int64) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg.Horizon = 8 * time.Hour
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.fullScan = fullScan
	for h := 0; h < sameInstantHosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	// Hosts 1–6 carry six VMs each (VM n on host (n-1)%6+1); hosts 7 and
	// 8 start empty. Odd-numbered VMs are "web", the rest "db", so hosts
	// 2, 4 and 6 hold no "web" VM.
	rng := sim.NewRNG(5)
	for v := 0; v < 36; v++ {
		name := fmt.Sprintf("db-%d", v+1)
		if v%2 == 0 {
			name = fmt.Sprintf("web-%d", v+1)
		}
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{Name: name, VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%6+1)); err != nil {
			t.Fatal(err)
		}
	}
	dirty := make(map[host.ID]bool)
	c.OnHostDirty(func(id host.ID) { dirty[id] = true })
	last := sim.Time(-1)
	c.OnTick(func(ts TickStats) {
		if ts.Now != last {
			wantEvals += sameInstantHosts
		} else {
			wantEvals += int64(len(dirty))
		}
		last = ts.Now
		clear(dirty)
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	c.Start()
	eng.RunUntil(time.Hour)
	must(c.StartMigration(1, 7))
	must(c.StartMigration(2, 3))
	h4, _ := c.Host(4) // no "web" resident: the surge leaves it clean
	must(h4.SetFrequency(0.8))
	if n := c.ScaleDemandPrefix("web", 1.5); n != 18 {
		t.Fatalf("surge matched %d VMs, want 18", n)
	}

	eng.RunUntil(2 * time.Hour)
	if c.Migrations().Stats().Completed != 2 {
		t.Fatalf("%d migrations completed by 2h, want 2", c.Migrations().Stats().Completed)
	}
	must(c.StartMigration(4, 6))
	must(c.CrashHost(6, 10*time.Minute)) // aborts VM 4's move; repaired at 2h10m

	eng.RunUntil(3 * time.Hour)
	must(c.SleepHost(8, power.S3))
	eng.RunUntil(4 * time.Hour)
	must(c.WakeHost(8))

	eng.RunUntil(5 * time.Hour)
	nv, err := c.AddPendingVM(vm.Config{Name: "web-new", VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(1)})
	must(err)
	must(c.PlaceVM(nv.ID(), 8))
	must(c.RemoveVM(9))

	eng.RunUntil(6 * time.Hour)
	c.ScaleDemandPrefix("web", 1)
	must(c.CrashHost(5, 10*time.Minute)) // no move in flight: only its own mark

	eng.RunUntil(8 * time.Hour)
	c.Flush()
	c.Close()
	if st := c.Migrations().Stats(); st.Completed != 2 || st.Aborted != 1 {
		t.Fatalf("migrations: %d completed, %d aborted; want 2 and 1", st.Completed, st.Aborted)
	}
	if done := c.Events().Filter(events.OfKind(events.MigrationCompleted)); len(done) != 2 || done[0].At != done[1].At {
		t.Fatalf("completions %v, want two at one instant", done)
	}
	if rep := c.Events().Filter(events.OfKind(events.HostSettled), events.ForHost(6)); len(rep) != 1 || rep[0].At != 2*time.Hour+10*time.Minute {
		t.Fatalf("host 6 settles %v, want its repair at 2h10m", rep)
	}
	return c, wantEvals
}

// TestSameInstantEvaluateMatchesFullScan holds the same-instant pass —
// only the hosts dirtied since the previous pass, when the clock has
// not moved — to the full-scan oracle: telemetry, aggregate SLA,
// energy, stranded VM·s and the event log must match bit for bit for
// shards {1, 2, 4} × delta {off, on}. With delta off the per-host
// evaluation count must also be exactly the one the dirty feed
// implies, so a pass that quietly fell back to a full scan fails too.
func TestSameInstantEvaluateMatchesFullScan(t *testing.T) {
	ref, _ := runSameInstantScenario(t, Config{}, true)
	refTicks, refEvals := ref.EvalCounts()
	if refEvals != refTicks*sameInstantHosts {
		t.Fatalf("full-scan oracle evaluated %d host-slots over %d passes, want %d",
			refEvals, refTicks, refTicks*sameInstantHosts)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/delta=%v", shards, delta), func(t *testing.T) {
				got, want := runSameInstantScenario(t, Config{Shards: shards, Delta: delta}, false)
				sameClusterResults(t, ref, got)
				re, ge := ref.Events().All(), got.Events().All()
				if len(re) != len(ge) {
					t.Fatalf("event log: %d events vs %d", len(re), len(ge))
				}
				for i := range re {
					if re[i] != ge[i] {
						t.Fatalf("event %d differs: %v vs %v", i, re[i], ge[i])
					}
				}
				ticks, evals := got.EvalCounts()
				if ticks != refTicks {
					t.Fatalf("%d passes, want the oracle's %d", ticks, refTicks)
				}
				if !delta && evals != want {
					t.Fatalf("evaluated %d host-slots, want %d", evals, want)
				}
				if want >= refEvals {
					t.Fatalf("the dirty feed implies %d host-slots, the oracle's %d: no same-instant pass skipped a host", want, refEvals)
				}
			})
		}
	}
}

// TestSameInstantEvaluateAllocFree extends the allocation gate to the
// same-instant pass: a DVFS move on two hosts and an evaluation at the
// instant already evaluated must refresh exactly those two hosts
// without touching the heap, serial, sharded, and with delta on.
func TestSameInstantEvaluateAllocFree(t *testing.T) {
	for _, cfg := range []Config{{}, {Shards: 4}, {Shards: 4, Delta: true}} {
		t.Run(fmt.Sprintf("shards=%d/delta=%v", cfg.Shards, cfg.Delta), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg.Horizon = 30 * 24 * time.Hour
			c := buildQuiescentCluster(t, eng, cfg, 16, 96)
			c.startEval()
			defer c.Close()
			c.evaluate()
			eng.RunUntil(sim.Time(time.Minute))
			c.evaluate()

			ticks0, evals0 := c.EvalCounts()
			avg := testing.AllocsPerRun(200, func() {
				c.HostChanged(3)
				c.HostChanged(12)
				c.evaluate()
			})
			if avg != 0 {
				t.Fatalf("same-instant evaluate allocates %.2f times per pass, want 0", avg)
			}
			ticks, evals := c.EvalCounts()
			if passes := ticks - ticks0; evals-evals0 != 2*passes {
				t.Fatalf("%d same-instant passes evaluated %d host-slots, want 2 each", passes, evals-evals0)
			}
		})
	}
}
