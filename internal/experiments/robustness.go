package experiments

import (
	"context"
	"fmt"
	"io"

	"agilepower"
	"agilepower/internal/core"
	"agilepower/internal/parallel"
	"agilepower/internal/report"
)

// Robustness — policy × fault-rate grid [extension]: the paper's
// comparison re-run under injected infrastructure faults (failed/slow
// power transitions, aborted/stalled migrations, transient host
// crashes), reporting energy, SLA violations, and the manager's
// recovery actions (retries, quarantines, re-plans) at each intensity.
//
// This is the risk side of the paper's argument made measurable: power
// management only pays if its energy savings survive the transition
// failures that made operators distrust it. The 0% row is the control
// — it is byte-identical to a fault-free build (the injector is never
// constructed), anchoring the grid to the main comparison.
func Robustness(w io.Writer, opts Options) error {
	rates := []float64{0, 0.02, 0.05, 0.10, 0.20}
	policies := []agilepower.Policy{agilepower.NoPM, agilepower.DPMS5, agilepower.DPMS3}
	if opts.Quick {
		rates = []float64{0, 0.10}
		policies = []agilepower.Policy{agilepower.DPMS5, agilepower.DPMS3}
	}
	type cell struct {
		rate float64
		pol  agilepower.Policy
	}
	cells := make([]cell, 0, len(rates)*len(policies))
	for _, r := range rates {
		for _, p := range policies {
			cells = append(cells, cell{r, p})
		}
	}
	sc0 := dayScenario(opts)
	fmt.Fprintf(w, "Robustness: %d hosts, %d VMs, horizon %.0fh, fault rates %v\n",
		sc0.Hosts, len(sc0.VMs), hours(sc0.Horizon), rates)

	// Every cell shares sc0's fleet and world parameters, so the world
	// is built once and forked per cell (cold fallback on error).
	proto, _ := sc0.Prototype()
	rows, err := parallel.Map(context.Background(), len(cells), opts.workers(),
		func(_ context.Context, i int) ([]any, error) {
			c := cells[i]
			sc := sc0
			sc.Name = fmt.Sprintf("robust-%s-%03.0f", c.pol.Name, c.rate*1000)
			sc.Manager.Policy = c.pol
			if c.rate > 0 {
				fc := agilepower.FaultPreset(c.rate)
				sc.Faults = &fc
			}
			res, err := runCell(proto, sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			opts.note(res)
			fc := res.FaultCounters
			return []any{
				fmt.Sprintf("%.0f%%", c.rate*100),
				res.Policy,
				res.EnergyKWh(),
				res.ViolationFraction,
				res.UnmetCoreHours,
				res.SuspendFailures,
				res.WakeFailures,
				res.Crashes,
				fc[core.CtrTransitionRetries],
				fc[core.CtrQuarantines],
				fc[core.CtrMigrationsAborted],
				fc[core.CtrMigrationReplans],
				res.StrandedVMHours,
			}, nil
		})
	if err != nil {
		return err
	}
	tbl := report.NewTable("robustness under injected faults",
		"fault", "policy", "energy_kwh", "sla_viol", "unmet_core_h",
		"susp_fail", "wake_fail", "crashes", "retries", "quarantine",
		"mig_abort", "replans", "stranded_vmh")
	for i, row := range rows {
		if i > 0 && i%len(policies) == 0 {
			tbl.AddSeparator()
		}
		tbl.AddRow(row...)
	}
	return tbl.Write(w)
}
