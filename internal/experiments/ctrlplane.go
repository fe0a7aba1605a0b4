package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"agilepower"
	"agilepower/internal/core"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/parallel"
	"agilepower/internal/report"
)

// CtrlPlane — policy × management-network grid [extension]: the
// paper's day-long comparison re-run with an imperfect control path
// between manager and hosts — telemetry that arrives late or not at
// all, power/migration commands that are dropped and retried, and
// liveness inferred from heartbeats with hysteresis.
//
// This closes the gap between the simulator's oracle manager and the
// paper's real deployment, where every sensing and actuation message
// crosses a management network. The delay=0/loss=0 row is the control:
// no plane is constructed, so it is byte-identical to the main
// comparison. The degraded cells report what the message layer cost —
// energy and SLA movement plus the plane's own ledger (timeouts,
// retries, suppressed duplicates, lost commands, liveness churn, and
// scale-downs vetoed by the telemetry freshness guard).
func CtrlPlane(w io.Writer, opts Options) error {
	type mix struct {
		delay time.Duration
		loss  float64
	}
	mixes := []mix{
		{0, 0},
		{2 * time.Second, 0},
		{2 * time.Second, 0.05},
		{10 * time.Second, 0.05},
		{10 * time.Second, 0.20},
	}
	policies := []agilepower.Policy{agilepower.DPMS5, agilepower.DPMS3}
	if opts.Quick {
		mixes = []mix{{0, 0}, {5 * time.Second, 0.25}}
	}
	// A -ctrlplane-delay/-ctrlplane-loss mix from the CLI joins the
	// grid as an extra row (the standard rows stay fixed so reports
	// remain comparable across invocations).
	if opts.ctrlPlane() != nil {
		mixes = append(mixes, mix{opts.CtrlDelay, opts.CtrlLoss})
	}
	type cell struct {
		mix mix
		pol agilepower.Policy
	}
	cells := make([]cell, 0, len(mixes)*len(policies))
	for _, mx := range mixes {
		for _, p := range policies {
			cells = append(cells, cell{mx, p})
		}
	}
	sc0 := dayScenario(opts)
	fmt.Fprintf(w, "Control plane: %d hosts, %d VMs, horizon %.0fh, %d delay×loss mixes\n",
		sc0.Hosts, len(sc0.VMs), hours(sc0.Horizon), len(mixes))

	// Every cell shares sc0's fleet and world parameters, so the world
	// is built once and forked per cell (cold fallback on error).
	proto, _ := sc0.Prototype()
	rows, err := parallel.Map(context.Background(), len(cells), opts.workers(),
		func(_ context.Context, i int) ([]any, error) {
			c := cells[i]
			sc := sc0
			sc.Name = fmt.Sprintf("ctrl-%s-d%s-l%03.0f", c.pol.Name, c.mix.delay, c.mix.loss*1000)
			sc.Manager.Policy = c.pol
			// Each cell IS a control-plane setting: the cell's mix
			// replaces whatever dayScenario inherited from the Options.
			cfg := agilepower.CtrlPreset(c.mix.delay, c.mix.loss)
			if cfg.Enabled() {
				sc.CtrlPlane = &cfg
			} else {
				sc.CtrlPlane = nil
			}
			res, err := runCell(proto, sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			opts.note(res)
			fc := res.FaultCounters
			return []any{
				c.mix.delay.String(),
				fmt.Sprintf("%.0f%%", c.mix.loss*100),
				res.Policy,
				res.EnergyKWh(),
				res.ViolationFraction,
				res.UnmetCoreHours,
				fc[ctrlplane.CtrCmdTimeouts],
				fc[ctrlplane.CtrCmdRetries],
				fc[ctrlplane.CtrCmdDupes],
				fc[ctrlplane.CtrCmdLost],
				fc[ctrlplane.CtrSuspects],
				fc[ctrlplane.CtrDeaths],
				fc[core.CtrStaleKeepOn],
			}, nil
		})
	if err != nil {
		return err
	}
	tbl := report.NewTable("paper comparison under an imperfect control plane",
		"delay", "loss", "policy", "energy_kwh", "sla_viol", "unmet_core_h",
		"cmd_tmo", "cmd_retry", "cmd_dupe", "cmd_lost",
		"hb_suspect", "hb_dead", "stale_keep")
	for i, row := range rows {
		if i > 0 && i%len(policies) == 0 {
			tbl.AddSeparator()
		}
		tbl.AddRow(row...)
	}
	return tbl.Write(w)
}
