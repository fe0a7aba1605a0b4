package experiments

import (
	"fmt"
	"io"
	"time"

	"agilepower"
	"agilepower/internal/report"
)

// Scale — datacenter-scale run [extension]: the paper evaluates its
// manager "with scale-out simulations"; this experiment reconstructs
// one at datacenter size — 2,048 heterogeneous hosts running 16,384
// mixed enterprise VMs — and runs the full policy comparison over it.
// Each policy's simulation runs on one goroutine; the policies run side
// by side on opts.Workers. Quick mode shrinks to a 64-host / 512-VM
// fleet.
//
// Energy/SLA land in the report (deterministic); simulator throughput
// (simulated-hours per wall-second, ticks per wall-second) is wall
// clock and therefore goes to opts.Progress, keeping the report
// byte-identical across machines and worker counts.
func Scale(w io.Writer, opts Options) error {
	classes := []agilepower.HostClass{
		{Count: 1536, Cores: 16, MemoryGB: 256},
		{Count: 512, Cores: 32, MemoryGB: 512},
	}
	vmsN := 16384
	horizon := 4 * time.Hour
	if opts.Quick {
		classes = []agilepower.HostClass{
			{Count: 48, Cores: 16, MemoryGB: 256},
			{Count: 16, Cores: 32, MemoryGB: 512},
		}
		vmsN = 512
		horizon = 2 * time.Hour
	}
	sc := opts.tune(agilepower.Scenario{
		Name:        "scale",
		Profile:     opts.Profile,
		HostClasses: classes,
		VMs:         agilepower.MixedFleet(vmsN, opts.seed()),
		Horizon:     horizon,
		Seed:        opts.seed(),
		CtrlPlane:   opts.ctrlPlane(),
	})
	hostsTotal := 0
	for _, hc := range classes {
		hostsTotal += hc.Count
	}
	// The header's "sharded evaluation" predates the serial tick; it
	// stays until the quick goldens are next regenerated.
	fmt.Fprintf(w, "Scale: %d hosts (%d×16c + %d×32c), %d VMs, horizon %.0fh, sharded evaluation\n",
		hostsTotal, classes[0].Count, classes[1].Count, vmsN, hours(horizon))

	start := time.Now()
	results, err := sc.RunPoliciesWorkers(opts.workers(), agilepower.Policies())
	if err != nil {
		return err
	}
	opts.note(results...)
	wall := time.Since(start)

	static := results[0]
	tbl := report.NewTable(
		"scale: full policy comparison at datacenter size",
		"policy", "energy_kwh", "savings_vs_static", "satisfaction", "violation_frac",
		"migrations", "sleeps", "wakes", "evals", "power_p95_w")
	totalTicks := 0
	for _, r := range results {
		// Power.Len counts every evaluation the run performed (periodic
		// ticks plus management actions) — the per-policy work metric the
		// throughput numbers below are denominated in. Summarize uses the
		// cached sort, so repeated percentile columns stay cheap.
		ticks := r.Power.Len()
		totalTicks += ticks
		tbl.AddRow(r.Policy, r.EnergyKWh(), r.SavingsVs(static),
			r.Satisfaction, r.ViolationFraction,
			r.Migrations.Completed, r.Sleeps, r.Wakes,
			ticks, r.Power.Summarize().P95)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	if opts.Progress != nil {
		simHours := hours(horizon) * float64(len(results))
		fmt.Fprintf(opts.Progress,
			"experiment scale    throughput: %.1f simulated-hours/wall-second, %.0f ticks/sec (%.2fs wall, workers=%d)\n",
			simHours/wall.Seconds(), float64(totalTicks)/wall.Seconds(),
			wall.Seconds(), opts.workers())
	}
	return nil
}
