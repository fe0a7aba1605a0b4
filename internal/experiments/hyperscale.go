package experiments

import (
	"fmt"
	"io"
	"time"

	"agilepower"
	"agilepower/internal/report"
)

// Hyperscale sizing. Full mode is the headline delta-evaluation run:
// a hundred-thousand-host fleet carrying a million VMs through a
// simulated day, feasible on a laptop because quiescent hosts are
// never rescanned and telemetry is bounded. Quick mode shrinks to a
// smoke-sized fleet with the same structure so the golden/CI suites
// replay it in seconds.
const (
	hyperscaleHosts    = 100000
	hyperscaleVMs      = 1000000
	hyperscaleQuickN   = 256
	hyperscaleQuickVMs = 4096
	// hyperscaleTelemetryCap bounds each recorded series. A day at a
	// 1-minute evaluation step plus management-action evaluations stays
	// well under 4096 buckets of useful resolution, and memory per
	// series is fixed at cap × 24 bytes for any horizon.
	hyperscaleTelemetryCap = 4096
)

// Hyperscale — delta evaluation at hyperscale [extension]: the full
// policy comparison on a 100,000-host / 1,000,000-VM fleet over a
// simulated day, the scale the event-driven delta evaluation tick and
// bounded telemetry exist for. VMs draw demand from a shared trace
// pool sampled at 15-minute intervals, so between demand edges hosts
// are quiescent and a tick's work is proportional to change volume,
// not fleet size. A trough-heavy variant (demand concentrated in
// short windows, the overwhelming majority of hosts quiescent at any
// instant) adds one row under the dpm-s3 policy.
//
// Energy/SLA land in the report (deterministic, byte-identical across
// worker counts and to the full-scan test oracle); throughput
// and the delta skip ratio are execution diagnostics and go to
// opts.Progress.
func Hyperscale(w io.Writer, opts Options) error {
	hosts, vmsN := hyperscaleHosts, hyperscaleVMs
	horizon := 24 * time.Hour
	if opts.Quick {
		hosts, vmsN = hyperscaleQuickN, hyperscaleQuickVMs
		horizon = time.Hour
	}
	sc := opts.tune(agilepower.Scenario{
		Name:         "hyperscale",
		Profile:      opts.Profile,
		Hosts:        hosts,
		HostCores:    16,
		HostMemoryGB: 256,
		VMs:          agilepower.HyperscaleFleet(vmsN, opts.seed()),
		Horizon:      horizon,
		Seed:         opts.seed(),
		CtrlPlane:    opts.ctrlPlane(),
		TelemetryCap: hyperscaleTelemetryCap,
	})
	fmt.Fprintf(w, "Hyperscale: %d hosts × 16c, %d pooled-trace VMs, horizon %.0fh, delta evaluation\n",
		hosts, vmsN, hours(horizon))

	// Full mode runs the policies sequentially: four concurrent
	// million-VM simulations would multiply the peak heap by four,
	// and the point of this experiment is fitting the day in bounded
	// memory. Quick mode keeps the usual fan-out.
	policyWorkers := opts.workers()
	if !opts.Quick {
		policyWorkers = 1
	}
	start := time.Now()
	results, err := sc.RunPoliciesWorkers(policyWorkers, agilepower.Policies())
	if err != nil {
		return err
	}
	opts.note(results...)

	static := results[0]
	tbl := report.NewTable(
		"hyperscale: full policy comparison at hyperscale",
		"policy", "energy_kwh", "savings_vs_static", "satisfaction", "violation_frac",
		"migrations", "sleeps", "wakes", "power_p95_w")
	for _, r := range results {
		tbl.AddRow(r.Policy, r.EnergyKWh(), r.SavingsVs(static),
			r.Satisfaction, r.ViolationFraction,
			r.Migrations.Completed, r.Sleeps, r.Wakes,
			r.Power.Summarize().P95)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}

	// Trough-heavy variant: same fleet size, demand concentrated in
	// short windows so most hosts sit quiescent — the best case for
	// delta evaluation and the row that shows SLA does not degrade
	// when nearly everything is parked. One policy keeps the variant a
	// single row.
	tsc := sc
	tsc.Name = "hyperscale-trough"
	tsc.VMs = agilepower.DeepTroughFleet(vmsN, opts.seed()+1)
	tsc.Manager.Policy = agilepower.DPMS3
	trough, err := tsc.Run()
	if err != nil {
		return err
	}
	opts.note(trough)
	wall := time.Since(start)
	vtbl := report.NewTable(
		"hyperscale: trough-heavy diurnal variant (dpm-s3)",
		"variant", "energy_kwh", "satisfaction", "violation_frac",
		"migrations", "sleeps", "wakes", "power_p95_w")
	vtbl.AddRow("trough-heavy", trough.EnergyKWh(),
		trough.Satisfaction, trough.ViolationFraction,
		trough.Migrations.Completed, trough.Sleeps, trough.Wakes,
		trough.Power.Summarize().P95)
	if err := vtbl.Write(w); err != nil {
		return err
	}

	if opts.Progress != nil {
		var ticks, evals int64
		for _, r := range results {
			ticks += r.EvalTicks
			evals += r.HostEvals
		}
		ticks += trough.EvalTicks
		evals += trough.HostEvals
		slots := float64(ticks) * float64(hosts)
		skip := 0.0
		if slots > 0 {
			skip = 1 - float64(evals)/slots
		}
		tSlots := float64(trough.EvalTicks) * float64(hosts)
		tSkip := 0.0
		if tSlots > 0 {
			tSkip = 1 - float64(trough.HostEvals)/tSlots
		}
		simHours := hours(horizon) * float64(len(results)+1)
		fmt.Fprintf(opts.Progress,
			"experiment hyperscale throughput: %.1f simulated-hours/wall-second (%.2fs wall); delta skipped %.1f%% of host-ticks (%.1f%% in the trough variant)\n",
			simHours/wall.Seconds(), wall.Seconds(), 100*skip, 100*tSkip)
	}
	return nil
}
