// Command bench is the end-to-end benchmark of the agilepower simulator:
// five named workloads that run the paper's experiments, datacenter
// policy comparisons, an operational chaos day and the simulation
// service through their public entry points, check the outputs, and
// report every end-to-end metric by name and unit. A traced run
// charges the time to layers. See README.md.
//
//	bash bench/run.sh --workload dc-policies --seed 1 --seconds 22 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"agilepower/bench/internal/ledger"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and reported with --trace 0. Times are CPU seconds, which
// leave out the time a shared host takes the processor away.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// spanMetrics are the spans reported as per-layer seconds per
// repetition.
var spanMetrics = []string{
	"fleet.build", "world.prototype", "world.fork", "scenario.parse", "session.start",
	"session.run", "session.result",
}

// perLayer are the metrics of single layers, reported with --trace 1.
// Seconds and counts are per repetition.
var perLayer = func() []metricDef {
	defs := []metricDef{{"wall_s", "s"}, {"setup_wall_s", "s"}}
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{s + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.hyper_s", "s"},
		metricDef{"experiments.scale_s", "s"},
		metricDef{"experiments.rest_s", "s"},
		metricDef{"service.run_wall_s", "s"},
		metricDef{"service.queue_wait_s", "s"},
		metricDef{"service.req_per_s", "1/s"},
		metricDef{"service.cold_p50_ms", "ms"},
		metricDef{"service.cold_p90_ms", "ms"},
		metricDef{"service.hit_p50_ms", "ms"},
		metricDef{"service.hit_p95_ms", "ms"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"cpu.errorf_s", "s"},
		metricDef{"cpu.total_s", "s"},
		metricDef{"cluster.eval_ticks", "count"},
		metricDef{"cluster.host_evals", "count"},
		metricDef{"cluster.skip_ratio", "ratio"},
		metricDef{"core.control_steps", "count"},
		metricDef{"core.migrations_rejected", "count"},
		metricDef{"core.migration_accept_ratio", "ratio"},
		metricDef{"migrate.started", "count"},
		metricDef{"migrate.completed", "count"},
		metricDef{"migrate.aborted", "count"},
		metricDef{"power.sleeps", "count"},
		metricDef{"power.wakes", "count"},
		metricDef{"ctrlplane.cmd_retries", "count"},
		metricDef{"ctrlplane.cmd_nacks", "count"},
		metricDef{"ctrlplane.report_drops", "count"},
		metricDef{"events.logged", "count"},
		metricDef{"mem.allocs_per_run", "count"},
		metricDef{"mem.gc_cycles", "count"},
		metricDef{"rescache.hits", "count"},
		metricDef{"rescache.misses", "count"},
		metricDef{"jobs.failed", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}()

func main() {
	name := flag.String("workload", "", "workload to run: paper-quick, dc-policies, fleet-static, ops-chaos, service")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 22, "how long the run measures; a traced run splits it between its two phases")
	trace := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics instead of end-to-end ones")
	record := flag.String("record", ".bench_build/records.jsonl", "append the invocation's record to this JSON-lines file")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1 and --seconds non-negative")
		os.Exit(2)
	}
	var w *workload
	for _, c := range allWorkloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rec, err := execute(*w, config{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: filepath.Join(".bench_build", "trace"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(filepath.Dir(*record), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := ledger.Append(*record, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printResult(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

type config struct {
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
}

// phase is one measured loop of repetitions. Per repetition, cpu and
// wall time its measured part, setup and setupWall its set-up, in CPU
// and wall-clock seconds.
type phase struct {
	cpu, wall         []float64
	setup, setupWall  []float64
	attempted, failed int
	digests           map[int]string     // first digest seen per input
	counts            map[string]float64 // the first repetition's
	seconds           map[string]float64 // summed over repetitions
	coldMS, hitMS     []float64
	problems          []string
}

// measure repeats set-up and run (at least once) until a repetition as
// long as the last one would end more than half its length after d has
// passed, so a phase lasts d on average, or until a repetition fails.
func measure(w workload, seed uint64, d time.Duration, tr *tracer) phase {
	p := phase{seconds: map[string]float64{}, digests: map[int]string{}}
	start := time.Now()
	var last time.Duration
	for rep := 0; rep == 0 || time.Since(start)+last/2 <= d; rep++ {
		r0 := time.Now()
		if tr != nil {
			tr.run = rep
		}
		input, in := 0, seed
		if w.freshInputs {
			input, in = rep, subSeed(seed, uint64(rep))
		}
		// Start every repetition from a collected heap, so one repetition's
		// garbage is not charged to the next one's time or peak RSS.
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		sp := tr.root("setup")
		run, err := w.setup(in, sp)
		sp.end()
		setupWall, setup := time.Since(t0).Seconds(), cpuSeconds()-c0
		if err != nil {
			p.attempted++
			p.failed++
			p.problems = append(p.problems, "setup: "+err.Error())
			return p
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1, c1 := time.Now(), cpuSeconds()
		sp = tr.root("run")
		out, err := run(sp)
		sp.end()
		wall, cpu := time.Since(t1).Seconds(), cpuSeconds()-c1
		runtime.ReadMemStats(&m1)
		p.attempted += max(out.ops, 1)
		p.failed += out.failed
		if err != nil {
			p.failed += max(1-out.failed, 0)
			p.problems = append(p.problems, err.Error())
			return p
		}
		p.cpu = append(p.cpu, cpu)
		p.wall = append(p.wall, wall)
		p.setup = append(p.setup, setup)
		p.setupWall = append(p.setupWall, setupWall)
		if prev, ok := p.digests[input]; ok && prev != out.digest {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("input %d: simulated-statistics digest %s differs from an earlier repetition's %s", input, out.digest, prev))
		} else {
			p.digests[input] = out.digest
		}
		for k, v := range out.seconds {
			p.seconds[k] += v
		}
		if rep == 0 {
			p.counts = out.counts
			if p.counts == nil {
				p.counts = map[string]float64{}
			}
			p.counts["mem.allocs_per_run"] = float64(m1.Mallocs - m0.Mallocs)
			p.counts["mem.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		}
		p.coldMS = append(p.coldMS, out.coldMS...)
		p.hitMS = append(p.hitMS, out.hitMS...)
		last = time.Since(r0)
	}
	return p
}

// execute runs one invocation: the untraced phase, and with cfg.trace a
// traced phase after it, which then share cfg.seconds equally; it
// returns the invocation's record.
func execute(w workload, cfg config) (ledger.Record, error) {
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		d /= 2
	}
	up := measure(w, cfg.seed, d, nil)
	rec := ledger.Record{
		Schema:     ledger.SchemaVersion,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Samples: map[string][]float64{
			"cpu_s": up.cpu, "wall_s": up.wall, "setup_s": up.setup, "setup_wall_s": up.setupWall,
		},
		Metrics: map[string]ledger.Metric{},
	}
	if len(up.coldMS)+len(up.hitMS) > 0 {
		rec.Samples["cold_ms"] = up.coldMS
		rec.Samples["hit_ms"] = up.hitMS
	}
	all := []phase{up}
	values := map[string]float64{}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return rec, err
		}
		values["cpu_s"] = ledger.Median(up.cpu)
		values["setup_s"] = ledger.Median(up.setup)
		values["peak_rss_mb"] = rss
	} else if len(up.problems) == 0 {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return rec, err
		}
		tr := newTracer()
		prof, err := startCPUProfile(cfg.traceDir, w.name)
		if err != nil {
			return rec, err
		}
		tp := measure(w, cfg.seed, d, tr)
		cpu, err := prof.stop()
		if err != nil {
			return rec, err
		}
		if err := tr.write(filepath.Join(cfg.traceDir, w.name+".spans.json")); err != nil {
			return rec, err
		}
		rec.Samples["traced_cpu_s"] = tp.cpu
		rec.Samples["traced_wall_s"] = tp.wall
		rec.Samples["traced_setup_s"] = tp.setup
		if len(tp.coldMS)+len(tp.hitMS) > 0 {
			rec.Samples["traced_cold_ms"] = tp.coldMS
			rec.Samples["traced_hit_ms"] = tp.hitMS
		}
		all = append(all, tp)
		values = layerValues(up, tp, tr.seconds(), cpu)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[m.name] = ledger.Metric{Value: v, Unit: m.unit}
	}
	inputs := 0
	for _, p := range all {
		for input := range p.digests {
			inputs = max(inputs, input+1)
		}
	}
	rec.Digests = make([]string, inputs)
	var problems []string
	for _, p := range all {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		problems = append(problems, p.problems...)
		for input, dg := range p.digests {
			if prev := rec.Digests[input]; prev != "" && prev != dg {
				rec.Failed++
				problems = append(problems, fmt.Sprintf("input %d: traced digest %s differs from untraced %s", input, dg, prev))
			}
			rec.Digests[input] = dg
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	rec.Correct = len(problems) == 0 && rec.Failed == 0
	return rec, nil
}

// layerValues assembles the per-layer metrics from the traced phase tp:
// times per repetition, and counts of its first repetition (input 0,
// whatever the phase's length, so they compare exactly between runs).
// The untraced phase up is the overhead reference and the source of
// wall-clock times and the service's request rate.
func layerValues(up, tp phase, spans, cpu map[string]float64) map[string]float64 {
	reps := float64(len(tp.wall))
	v := map[string]float64{}
	for k, x := range tp.counts {
		v[k] = x
	}
	for k, x := range tp.seconds {
		v[k] = x / reps
	}
	for _, s := range spanMetrics {
		v[s+"_s"] = spans[s] / reps
	}
	for _, l := range cpuLayers {
		v["cpu."+l+"_s"] = cpu[l] / reps
	}
	v["cpu.errorf_s"] = cpu["errorf"] / reps
	v["cpu.total_s"] = cpu["total"] / reps
	v["cluster.skip_ratio"] = ratio(v["cluster.host_slots"]-v["cluster.host_evals"], v["cluster.host_slots"])
	v["core.migration_accept_ratio"] = ratio(v["migrate.started"], v["migrate.started"]+v["core.migrations_rejected"])
	v["wall_s"] = ledger.Median(up.wall)
	v["setup_wall_s"] = ledger.Median(up.setupWall)
	v["trace.overhead_frac"] = ledger.Median(tp.cpu)/ledger.Median(up.cpu) - 1
	if len(tp.coldMS) > 0 {
		v["service.queue_wait_s"] = mean(tp.coldMS)/1000 - v["service.run_wall_s"]
	}
	if len(up.coldMS)+len(up.hitMS) > 0 {
		v["service.req_per_s"] = float64(len(up.coldMS)+len(up.hitMS)) / sum(up.wall)
		// Each phase of a traced run is half a run, too short for the
		// tails on its own: the percentiles take both phases' samples.
		cold, hit := slices.Concat(up.coldMS, tp.coldMS), slices.Concat(up.hitMS, tp.hitMS)
		v["service.cold_p50_ms"] = ledger.Percentile(cold, 50)
		v["service.cold_p90_ms"] = tail(cold, 90)
		v["service.hit_p50_ms"] = ledger.Percentile(hit, 50)
		v["service.hit_p95_ms"] = tail(hit, 95)
	}
	return v
}

// tail returns the p-th percentile of xs, or NaN (reported as 0) when
// fewer than ten samples lie beyond it.
func tail(xs []float64, p float64) float64 {
	if ledger.HighestPercentile(len(xs)) < p {
		return math.NaN()
	}
	return ledger.Percentile(xs, p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// commit names the source revision the binary was built from, when the
// build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// printResult prints every metric as "name value unit", then the result
// object as the last line.
func printResult(rec ledger.Record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Printf("%s %.6g %s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("# %s seed %d: %d reps, %d ops attempted, %d failed, digests %v\n",
		rec.Workload, rec.Seed, len(rec.Samples["wall_s"]), rec.Attempted, rec.Failed, rec.Digests)
	cold := len(rec.Samples["cold_ms"]) + len(rec.Samples["traced_cold_ms"])
	hit := len(rec.Samples["hit_ms"]) + len(rec.Samples["traced_hit_ms"])
	if cold+hit > 0 {
		fmt.Printf("# latency samples: %d cold (tail up to p%g), %d hit (tail up to p%g)\n",
			cold, ledger.HighestPercentile(cold), hit, ledger.HighestPercentile(hit))
	}
	out, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]ledger.Metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(out))
}

// cpuSeconds is the user and system CPU time the process has used, on
// every thread. Time the host's hypervisor gives the processor to
// another guest (steal) is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
