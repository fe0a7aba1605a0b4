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
// another, and a Flush on the last tick's instant. fullScan selects
// the full-scan oracle. wantEvals is the event-driven
// tick's exact per-host evaluation count: every host at the Start
// pass; at any later pass the hosts dirtied since the previous one (as
// the OnHostDirty feed saw them); and at a pass at a new whole minute
// also every host holding a diurnal resident. Those traces are sampled
// every minute from time 0, so their memo entries end on the next
// whole minute, and every whole minute has a tick; the one constant
// trace is never due.
func runSameInstantScenario(t testing.TB, fullScan bool) (c *Cluster, wantEvals int64) {
	t.Helper()
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 8 * time.Hour})
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
		switch {
		case last < 0:
			wantEvals += sameInstantHosts
		case ts.Now != last && ts.Now%sim.Time(time.Minute) == 0:
			for _, h := range c.Hosts() {
				for _, v := range h.Residents() {
					if len(v.Trace().Samples) > 1 {
						dirty[h.ID()] = true
					}
				}
			}
			wantEvals += int64(len(dirty))
		default:
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
// energy, stranded VM·s and the event log must match bit for bit, on
// the event-driven (delta) tick and on the oracle, for 1, 2 and 4
// copies of the scenario run side by side (shards=S, see sideBySide).
// The per-host evaluation count must also be exact: on the tick, the
// one the dirty feed and the fixture's deadlines imply, so a pass that
// quietly fell back to a full scan fails too; on the oracle, every
// host at every pass, so an oracle that skipped hosts fails.
func TestSameInstantEvaluateMatchesFullScan(t *testing.T) {
	type run struct {
		c    *Cluster
		want int64
	}
	ref, _ := runSameInstantScenario(t, true)
	refTicks, refEvals := ref.EvalCounts()
	if refEvals != refTicks*sameInstantHosts {
		t.Fatalf("full-scan oracle evaluated %d host-slots over %d passes, want %d",
			refEvals, refTicks, refTicks*sameInstantHosts)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/delta=%v", shards, delta), func(t *testing.T) {
				for _, r := range sideBySide(t, shards, func(t testing.TB) run {
					c, want := runSameInstantScenario(t, !delta)
					return run{c, want}
				}) {
					got, want := r.c, r.want
					sameClusterResults(t, ref, got)
					sameEvents(t, ref, got)
					ticks, evals := got.EvalCounts()
					if ticks != refTicks {
						t.Fatalf("%d passes, want the oracle's %d", ticks, refTicks)
					}
					if !delta {
						if evals != refEvals {
							t.Fatalf("oracle evaluated %d host-slots, want every host at each of %d passes (%d)",
								evals, ticks, refEvals)
						}
						continue
					}
					// 3,337 = 8 at Start + 6 diurnal hosts × the 60 whole
					// minutes to 1h + 7 × the 420 after VM 1 lands on host
					// 7 at 1h0m7s + 29 hosts dirtied before the 21 passes
					// that are not the first at a whole minute (the
					// oracle: 502 passes × 8 hosts).
					if evals != want || want != 3337 {
						t.Fatalf("evaluated %d host-slots, the fixture implies %d, want 3,337", evals, want)
					}
					if want >= refEvals {
						t.Fatalf("the dirty feed implies %d host-slots, the oracle's %d: no pass skipped a host", want, refEvals)
					}
				}
			})
		}
	}
}

// TestSameInstantEvaluateAllocFree extends the allocation gate to the
// same-instant pass: a DVFS move on two hosts and an evaluation at the
// instant already evaluated must refresh exactly those two hosts on
// the event-driven (delta) tick, and all sixteen on the full-scan
// oracle, without allocating. shards=S steps S clusters in turn inside
// each measured run (shards=0: one), as a worker thread interleaves
// the simulations it runs; they share the test's goroutine because
// AllocsPerRun counts every goroutine's allocations.
func TestSameInstantEvaluateAllocFree(t *testing.T) {
	const hosts = 16
	for _, shards := range []int{0, 4} {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/delta=%v", shards, delta), func(t *testing.T) {
				cs := make([]*Cluster, max(shards, 1))
				for i := range cs {
					eng := sim.NewEngine(1)
					c := buildQuiescentCluster(t, eng, Config{Horizon: 30 * 24 * time.Hour}, hosts, 96)
					c.fullScan = !delta
					c.startEval()
					c.evaluate()
					eng.RunUntil(sim.Time(time.Minute))
					c.evaluate()
					cs[i] = c
				}

				before := make([][2]int64, len(cs))
				for i, c := range cs {
					before[i][0], before[i][1] = c.EvalCounts()
				}
				avg := testing.AllocsPerRun(200, func() {
					for _, c := range cs {
						c.HostChanged(3)
						c.HostChanged(12)
						c.evaluate()
					}
				})
				if avg != 0 {
					t.Fatalf("same-instant evaluate allocates %.2f times per run of %d passes, want 0", avg, len(cs))
				}
				perPass := int64(2)
				if !delta {
					perPass = hosts
				}
				for i, c := range cs {
					ticks, evals := c.EvalCounts()
					if passes := ticks - before[i][0]; evals-before[i][1] != perPass*passes {
						t.Fatalf("%d same-instant passes evaluated %d host-slots, want %d each", passes, evals-before[i][1], perPass)
					}
				}
			})
		}
	}
}
