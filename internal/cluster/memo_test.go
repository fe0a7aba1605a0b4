package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// memoFleet builds a never-started cluster whose VMs reach every path
// of the demand memo: short traces (3 to 12 samples, so queries cross
// cycles often) at 30 s, 1 min and 2 min intervals, runs of equal
// samples, constant traces, and vCPU and limit caps below the traces'
// peaks. Half the VMs are named "surge-…" for ScaleDemandPrefix.
func memoFleet(t *testing.T, seed uint64, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(seed)
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 6
	for h := 0; h < hosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 64, MemoryGB: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(seed)
	intervals := []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute}
	for i := 0; i < 48; i++ {
		var tr *workload.Trace
		if i%7 == 0 {
			tr = workload.Constant(float64(rng.Intn(4)) + 0.5)
		} else {
			samples := make([]float64, rng.Intn(10)+3)
			for j := range samples {
				if j > 0 && rng.Intn(3) == 0 {
					samples[j] = samples[j-1] // a run: no change at this boundary
				} else {
					samples[j] = float64(rng.Intn(12)) / 2
				}
			}
			if tr, err = workload.NewTrace(intervals[rng.Intn(len(intervals))], samples); err != nil {
				t.Fatal(err)
			}
		}
		cfg := vm.Config{VCPUs: 4, MemoryGB: 4, Trace: tr, Name: fmt.Sprintf("steady-%02d", i)}
		if i%2 == 0 {
			cfg.Name = fmt.Sprintf("surge-%02d", i)
		}
		if i%5 == 0 {
			cfg.LimitCores = 2.5
		}
		if _, err := c.AddVM(cfg, host.ID(i%hosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	return eng, c
}

// uncachedDemand is VMDemand without the memo, written out from its
// definition: the trace's value at at, times the VM's runtime scale
// when one is in effect, capped at the VM's vCPUs and then its limit.
func uncachedDemand(c *Cluster, v *vm.VM, at sim.Time) float64 {
	d := v.Trace().At(at)
	if i := int(v.ID()) - 1; i < len(c.demandScale) {
		if s := c.demandScale[i]; s != 0 && s != 1 {
			d *= s
		}
	}
	if d > v.VCPUs() {
		d = v.VCPUs()
	}
	if lim := v.LimitCores(); lim > 0 && d > lim {
		d = lim
	}
	return d
}

// memoHistory runs a random query history against c and returns the
// first mismatch: every VMDemand and VMDemandNext must equal the
// uncached read (uncachedDemand, NextDemandChange) bit for bit. Queries
// move forward within and across samples, repeat an instant, and go
// back to earlier ones (a forecast catch-up at a past invocation); the
// engine advances between them, so the running
// cluster's own ticks fill the memo as well; and demand surges scale
// half the fleet up and back to 1.
func memoHistory(eng *sim.Engine, c *Cluster, seed uint64, steps int) error {
	rng := sim.NewRNG(seed)
	vms := c.VMs()
	at := eng.Now()
	var prev sim.Time
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(20); {
		case r < 8:
			prev, at = at, at+sim.Time(rng.Intn(90))*sim.Time(time.Second)
		case r < 10: // repeat the instant
		case r < 13:
			at, prev = prev, at // back to the previous query instant
		case r < 14:
			at = sim.Time(rng.Intn(int(at/sim.Time(time.Second))+1)) * sim.Time(time.Second)
		case r < 15:
			prev, at = at, at+sim.Time(rng.Intn(40))*sim.Time(time.Minute) // across cycles
		case r < 17:
			eng.RunUntil(eng.Now() + sim.Time(rng.Intn(3)+1)*sim.Time(time.Minute))
			prev, at = at, eng.Now()
		case r < 18:
			factor := 1.0
			if rng.Intn(2) == 0 {
				factor = 2.5
			}
			c.ScaleDemandPrefix("surge-", factor)
		default:
			c.ScaleDemandPrefix("surge-", 1)
		}
		for k := 0; k < 8; k++ {
			v := vms[rng.Intn(len(vms))]
			want, wantNext := uncachedDemand(c, v, at), v.NextDemandChange(at)
			if rng.Intn(2) == 0 {
				if got := c.VMDemand(v, at); math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("step %d: VMDemand(%s, %v) = %v, want %v", step, v.Name(), at, got, want)
				}
				continue
			}
			got, next := c.VMDemandNext(v, at)
			if math.Float64bits(got) != math.Float64bits(want) || next != wantNext {
				return fmt.Errorf("step %d: VMDemandNext(%s, %v) = (%v, %v), want (%v, %v)",
					step, v.Name(), at, got, next, want, wantNext)
			}
		}
	}
	return nil
}

// TestVMDemandMemoMatchesTrace holds the demand memo to the uncached
// trace read: on running clusters, serial and sharded, on the
// full-scan oracle (every resident read at every pass) and on the
// event-driven tick (each host's deadline taken from its residents'
// entries; shard workers fill them concurrently), and on a fork run
// concurrently with its running source (VM pointers are shared across
// forks, so a memo kept anywhere but the cluster would race under
// -race and answer one world with the other's reads).
func TestVMDemandMemoMatchesTrace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		fullScan bool
	}{
		{"full", Config{}, true},
		{"delta", Config{}, false},
		{"sharded", Config{Shards: 3}, true},
		{"sharded-delta", Config{Shards: 3}, false},
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				eng, c := memoFleet(t, seed, tc.cfg)
				c.fullScan = tc.fullScan
				c.Start()
				defer c.Close()
				if err := memoHistory(eng, c, seed, 3000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	t.Run("fork", func(t *testing.T) {
		eng, src := memoFleet(t, 9, Config{})
		feng := sim.NewEngine(9)
		fork, err := src.Fork(feng)
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		fork.Start()
		done := make(chan error, 1)
		go func() { done <- memoHistory(feng, fork, 10, 3000) }()
		if err := memoHistory(eng, src, 11, 3000); err != nil {
			t.Error("source:", err)
		}
		if err := <-done; err != nil {
			t.Error("fork:", err)
		}
	})
}
