// Package experiments implements the reproduction of every table and
// figure in the paper's evaluation (reconstructed — see DESIGN.md).
// Each experiment is a named function that runs the workload, prints
// the same rows/series the paper reports, and returns the numbers for
// programmatic checks. The cmd/powerbench and cmd/sweep binaries and
// the root bench_test.go all drive this package, so the figures are
// regenerated from exactly one implementation.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"agilepower"
	"agilepower/internal/parallel"
	"agilepower/internal/power"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks horizons and fleet sizes so the full suite runs in
	// seconds (used by `go test -bench`). Full mode reproduces the
	// paper-scale parameters.
	Quick bool
	// Seed drives workload generation (default 1).
	Seed uint64
	// SVGDir, when non-empty, makes figure experiments also write SVG
	// charts into this directory (currently F5).
	SVGDir string
	// Profile overrides the server power calibration (default
	// power.DefaultProfile). Characterization and cluster experiments
	// both honour it, so alternative platforms can be explored from
	// the CLIs.
	Profile *power.Profile
	// CtrlDelay and CtrlLoss degrade the management network for the
	// cluster-level experiments (CtrlPreset mix): mean one-way message
	// delay and per-leg loss probability. Both zero (the default)
	// builds no control plane at all, keeping reports byte-identical
	// to plane-unaware builds. The ctrlplane experiment sweeps its own
	// grid and ignores these.
	CtrlDelay time.Duration
	CtrlLoss  float64
	// Shards partitions each simulation's evaluation tick into this
	// many concurrent ID-contiguous host ranges (see Scenario.Shards).
	// A wall-clock knob for datacenter-scale fleets: every report is
	// byte-identical for every value. The scale experiment defaults to
	// its own shard count when Shards is 0; everything else stays
	// serial.
	Shards int
	// TelemetryCap bounds each recorded time series to this many stored
	// samples via deterministic bucket folding (see
	// Scenario.TelemetryCap). 0 leaves experiments to their defaults
	// (unbounded, except hyperscale which sets its own cap).
	TelemetryCap int
	// Workers bounds the number of simulations run concurrently inside
	// an experiment's fan-out (per-policy, per-load, per-period, …) and
	// across experiments in RunAll. 0 means GOMAXPROCS; 1 runs fully
	// sequentially. Every report is byte-identical for every value:
	// each simulation renders into its own slot and the rows/sections
	// are stitched in experiment order.
	Workers int
	// Progress, when non-nil, receives one line per completed
	// experiment in RunAll (id + wall time). It is kept separate from
	// the report writer so long runs are observable on stderr without
	// polluting the stdout report. Lines appear in completion order.
	Progress io.Writer
	// Health, when non-nil, accumulates fleet-hygiene problems across
	// every simulation the experiments run (see Health). CLIs consult
	// it after a sweep to exit nonzero on stranded VMs or failed
	// assertions even when the report itself rendered fine.
	Health *Health
}

// Health accumulates fleet-hygiene problems across simulations: VMs
// still stranded on crashed hosts at the horizon and failed scenario
// assertions. A sweep whose report renders fine can still have left
// wreckage behind; CLIs consult the accumulated verdict to exit
// nonzero. Safe for concurrent use — experiments fan out across
// workers.
type Health struct {
	mu       sync.Mutex
	runs     int
	badRuns  int
	stranded int
	failed   int
}

// Note records one simulation's outcome.
func (h *Health) Note(res *agilepower.Result) {
	if h == nil || res == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.runs++
	if res.StrandedVMs > 0 || res.AssertionFailures > 0 {
		h.badRuns++
		h.stranded += res.StrandedVMs
		h.failed += res.AssertionFailures
	}
}

// Unhealthy reports whether any noted run ended with stranded VMs or
// failed assertions.
func (h *Health) Unhealthy() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.badRuns > 0
}

// Summary renders the one-line verdict CLIs print to stderr.
func (h *Health) Summary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf("%d of %d runs unhealthy: %d stranded VM(s), %d failed assertion(s)",
		h.badRuns, h.runs, h.stranded, h.failed)
}

// note feeds results into the Options' Health accumulator, if any.
// Every experiment run site routes its results through here.
func (o Options) note(results ...*agilepower.Result) {
	if o.Health == nil {
		return
	}
	for _, r := range results {
		o.Health.Note(r)
	}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) profile() *power.Profile {
	if o.Profile != nil {
		return o.Profile
	}
	return power.DefaultProfile()
}

// ctrlPlane materializes the Options' control-plane degradation, or
// nil when dormant (so no plane is constructed and byte-identity with
// plane-free runs holds).
func (o Options) ctrlPlane() *agilepower.CtrlPlaneConfig {
	cfg := agilepower.CtrlPreset(o.CtrlDelay, o.CtrlLoss)
	if !cfg.Enabled() {
		return nil
	}
	return &cfg
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return parallel.DefaultWorkers()
	}
	return o.Workers
}

// tune applies the Options' execution knobs — evaluation-tick
// sharding, telemetry cap — to a scenario. Sharding is purely
// wall-clock: the scenario's results are byte-identical for every
// setting.
func (o Options) tune(sc agilepower.Scenario) agilepower.Scenario {
	sc.Shards = o.Shards
	if o.TelemetryCap > 0 {
		sc.TelemetryCap = o.TelemetryCap
	}
	return sc
}

// runCell executes one grid cell: forked from the shared prototype
// when one is available, or via a cold Start otherwise. Results are
// byte-identical either way.
func runCell(proto *agilepower.Prototype, sc agilepower.Scenario) (*agilepower.Result, error) {
	if proto != nil {
		return proto.Run(sc)
	}
	return sc.Run()
}

// Runner executes one experiment, writing its report to w.
type Runner func(w io.Writer, opts Options) error

var registry = map[string]Runner{
	"t1":      T1,
	"f2":      F2,
	"f3":      F3,
	"f4":      F4,
	"f5":      F5,
	"f6":      F6,
	"f7":      F7,
	"f8":      F8,
	"f9":      F9,
	"f10":     F10,
	"t2":      T2,
	"prov":    Prov,
	"predict": Predict,
	"dvfs":    DVFS,
	"robust":  Robustness,
	"ctrl":    CtrlPlane,
	"scale":   Scale,
	"hyper":   Hyperscale,
	"ablate":  Ablations,
}

// IDs returns all experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

func orderKey(id string) string {
	// t1 first, then f2..f10 numerically, then t2, then ablate.
	switch id {
	case "t1":
		return "00"
	case "t2":
		return "90"
	case "prov":
		return "95"
	case "predict":
		return "96"
	case "dvfs":
		return "97"
	case "robust":
		return "98"
	case "ctrl":
		return "985"
	case "scale":
		return "987"
	case "hyper":
		return "988"
	case "ablate":
		return "99"
	default:
		if len(id) == 2 {
			return "0" + id[1:]
		}
		return id[1:]
	}
}

// Run executes the experiment with the given id.
func Run(id string, w io.Writer, opts Options) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(w, opts)
}

// RunAll executes every experiment and writes the reports in
// experiment order. Experiments run concurrently on up to
// opts.Workers workers (0 = GOMAXPROCS), each rendering into its own
// buffer; the stitched output is byte-identical to a sequential run.
// When opts.Progress is non-nil, one line per experiment (id + wall
// time) is written there as runs complete.
func RunAll(w io.Writer, opts Options) error {
	ids := IDs()
	start := time.Now()
	var progressMu sync.Mutex
	bufs, err := parallel.Map(context.Background(), len(ids), opts.Workers,
		func(_ context.Context, i int) (*bytes.Buffer, error) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "\n=== experiment %s ===\n", ids[i])
			expStart := time.Now()
			if err := Run(ids[i], &buf, opts); err != nil {
				return nil, fmt.Errorf("experiment %s: %w", ids[i], err)
			}
			if opts.Progress != nil {
				progressMu.Lock()
				fmt.Fprintf(opts.Progress, "experiment %-8s done in %8.2fs\n",
					ids[i], time.Since(expStart).Seconds())
				progressMu.Unlock()
			}
			return &buf, nil
		})
	if err != nil {
		return err
	}
	for _, buf := range bufs {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "all %d experiments done in %.2fs (workers=%d)\n",
			len(ids), time.Since(start).Seconds(), opts.workers())
	}
	return nil
}

// hours is a small helper for report durations.
func hours(d time.Duration) float64 { return d.Hours() }
