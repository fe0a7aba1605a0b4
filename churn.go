package agilepower

import (
	"fmt"
	"math"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// ChurnSpec adds dynamic provisioning to a scenario: VMs arrive as a
// Poisson process, run for an exponentially distributed lifetime, and
// depart. Arrived VMs sit pending (demand charged as unserved) until
// the manager places them — so provisioning latency becomes a measured
// quantity, including the cost of waking parked capacity for new
// tenants.
type ChurnSpec struct {
	// ArrivalsPerHour is the Poisson arrival rate.
	ArrivalsPerHour float64
	// MeanLifetime is the exponential mean VM lifetime (default 4h).
	MeanLifetime time.Duration
	// VCPUs and MemoryGB size each arriving VM (defaults 4 / 8).
	VCPUs    float64
	MemoryGB float64
	// DemandCores is the mean flat demand of an arriving VM; each VM
	// draws uniformly from [0.5, 1.5]× this value (default 1).
	DemandCores float64
}

func (c *ChurnSpec) defaults() ChurnSpec {
	out := *c
	if out.MeanLifetime <= 0 {
		out.MeanLifetime = 4 * time.Hour
	}
	if out.VCPUs <= 0 {
		out.VCPUs = 4
	}
	if out.MemoryGB <= 0 {
		out.MemoryGB = 8
	}
	if out.DemandCores <= 0 {
		out.DemandCores = 1
	}
	return out
}

// maxArrivalsPerHour is the fastest arrival rate whose mean gap is
// still at least 1 ns. Above it the gap rounds to 0, every arrival
// lands at the same instant, and a run never leaves it.
const maxArrivalsPerHour = float64(time.Hour)

// Validate checks the spec.
func (c *ChurnSpec) Validate() error {
	r := c.ArrivalsPerHour
	if r < 0 {
		return fmt.Errorf("agilepower: negative arrival rate %v", r)
	}
	if math.IsNaN(r) || r > maxArrivalsPerHour {
		return fmt.Errorf("agilepower: arrival rate %v per hour outside [0, %g]", r, maxArrivalsPerHour)
	}
	return nil
}

// ChurnStats summarizes dynamic provisioning over a run.
type ChurnStats struct {
	Arrived  int
	Departed int
	// Placed is how many arrivals were placed onto hosts.
	Placed int
	// ProvisionP50/P95/Max are arrival→placement latencies.
	ProvisionP50 time.Duration
	ProvisionP95 time.Duration
	ProvisionMax time.Duration
}

// scheduleChurn wires arrival/departure events into the engine.
func scheduleChurn(eng *sim.Engine, cl *cluster.Cluster, spec ChurnSpec, horizon time.Duration, stats *ChurnStats) {
	spec = spec.defaults()
	if spec.ArrivalsPerHour <= 0 {
		return
	}
	rng := eng.RNG().Fork()
	meanGap := time.Duration(float64(time.Hour) / spec.ArrivalsPerHour)

	var depart func(id vm.ID)
	depart = func(id vm.ID) {
		if err := cl.RemoveVM(id); err != nil {
			// Mid-migration: retry shortly after the move commits.
			eng.AfterFunc(time.Minute, func() { depart(id) })
			return
		}
		stats.Departed++
	}

	n := 0
	var arrive func()
	arrive = func() {
		n++
		demand := spec.DemandCores * rng.Range(0.5, 1.5)
		v, err := cl.AddPendingVM(vm.Config{
			Name:     fmt.Sprintf("churn-%04d", n),
			VCPUs:    spec.VCPUs,
			MemoryGB: spec.MemoryGB,
			Trace:    workload.Constant(demand),
		})
		if err == nil {
			stats.Arrived++
			life := time.Duration(rng.Exp(float64(spec.MeanLifetime)))
			eng.AfterFunc(life, func() { depart(v.ID()) })
		}
		gap := time.Duration(rng.Exp(float64(meanGap)))
		if eng.Now()+gap < sim.Time(horizon) {
			eng.AfterFunc(gap, arrive)
		}
	}
	firstGap := time.Duration(rng.Exp(float64(meanGap)))
	if firstGap < horizon {
		eng.AfterFunc(firstGap, arrive)
	}
}

// churnStatsFrom finalizes the provisioning latency percentiles.
func churnStatsFrom(cl *cluster.Cluster, stats *ChurnStats) {
	lats := cl.ProvisionLatencies()
	stats.Placed = len(lats)
	if len(lats) == 0 {
		return
	}
	vals := make([]float64, len(lats))
	for i, l := range lats {
		vals[i] = l.Seconds()
	}
	sum := telemetry.Summarize(vals)
	stats.ProvisionP50 = time.Duration(sum.P50 * float64(time.Second))
	stats.ProvisionP95 = time.Duration(sum.P95 * float64(time.Second))
	stats.ProvisionMax = time.Duration(sum.Max * float64(time.Second))
}
