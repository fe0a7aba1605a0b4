package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agilepower"
	"agilepower/internal/api"
	"agilepower/internal/experiments"
)

// A workload is one named set of inputs. setup prepares a repetition
// from its input seed (timed as setup_s) and returns its measured part
// (timed as wall_s). Every repetition sets up afresh, so set-up is
// sampled as often as the measured part and a repetition never reuses
// state a previous one warmed.
type workload struct {
	name string
	// freshInputs gives repetition k its own input, derived from the
	// workload seed and k; otherwise every repetition runs the workload
	// seed itself. A simulation's cost swings with its input by ±10%, so
	// the median over a dozen inputs is steady from seed to seed where
	// one input, or a few, are not. The traced phase repeats the untraced
	// phase's inputs in order, and their digests are checked against it.
	freshInputs bool
	setup       func(seed uint64, sp span) (runFunc, error)
}

type runFunc func(sp span) (repOut, error)

// repOut is what one measured repetition reports.
type repOut struct {
	// ops counts user-visible operations (experiments, simulation runs,
	// HTTP requests); failed counts those whose output check failed.
	ops, failed int
	// digest hashes the simulated statistics; it must be identical for
	// every repetition of one input.
	digest string
	// counts are exact per-layer counts from Results and /metrics; they
	// repeat exactly for one input.
	counts map[string]float64
	// seconds are per-layer times the program reports itself: RunAll's
	// progress lines and the service's run-wall histogram.
	seconds map[string]float64
	// coldMS and hitMS are service request latencies.
	coldMS, hitMS []float64
}

// Load in every workload is at most two concurrent goroutines, workers
// or connections: the CPU count of the machine the bounds were set on.
const loadWidth = 2

// allWorkloads returns the benchmark's workloads at full size.
func allWorkloads() []workload {
	return []workload{
		paperQuick(experiments.RunAll, len(experiments.IDs()), "internal/experiments/testdata/golden_quick.txt"),
		// A diurnal fleet: with MixedFleet about two inputs in five set off
		// a drain cascade that triples the migrations, so the cost of a
		// repetition is bimodal and a run's median flips between the
		// modes. Diurnal inputs migrate within ±3% of each
		// other.
		simFleet("dc-policies", []agilepower.HostClass{
			{Count: 192, Cores: 16, MemoryGB: 256},
			{Count: 64, Cores: 32, MemoryGB: 512},
		}, agilepower.DiurnalFleet, 2048, 2*time.Hour, agilepower.Policies()),
		// A whole day of a quarter of the scale fleet: MixedFleet's spiky
		// tier surges four times a day at seed-drawn hours, so a window of
		// a few hours costs ±12% with how many surges fall inside it, and
		// a day ±7%.
		simFleet("fleet-static", []agilepower.HostClass{
			{Count: 384, Cores: 16, MemoryGB: 256},
			{Count: 128, Cores: 32, MemoryGB: 512},
		}, agilepower.MixedFleet, 4096, 24*time.Hour, []agilepower.Policy{agilepower.Static}),
		opsChaos(4, 24),
		service(120, 32, 160, 24),
	}
}

// paperQuick regenerates every quick-mode report of the paper with
// runAll (experiments.RunAll outside tests), which must render the
// given number of sections. At seed 1 the report must equal the golden
// file byte for byte (when one is named); at any seed every simulation
// must stay healthy.
//
// RunAll builds its worlds inside the timed call, so the workload has no
// set-up of its own; setup_s times a cold build of the suite's
// datacenter-scale world (the quick `scale` fleet and its Prototype),
// the construction RunAll repeats for each cluster experiment.
func paperQuick(runAll func(io.Writer, experiments.Options) error, sections int, golden string) workload {
	return workload{name: "paper-quick", setup: func(seed uint64, sp span) (runFunc, error) {
		b := sp.child("fleet.build")
		vms := agilepower.MixedFleet(512, seed)
		b.end()
		p := sp.child("world.prototype")
		_, err := agilepower.Scenario{
			HostClasses: []agilepower.HostClass{
				{Count: 48, Cores: 16, MemoryGB: 256},
				{Count: 16, Cores: 32, MemoryGB: 512},
			},
			VMs:     vms,
			Horizon: 2 * time.Hour,
			Seed:    seed,
		}.Prototype()
		p.end()
		if err != nil {
			return nil, err
		}
		var want []byte
		if seed == 1 && golden != "" {
			if want, err = os.ReadFile(golden); err != nil {
				return nil, err
			}
		}
		return func(sp span) (repOut, error) {
			var report, progress bytes.Buffer
			health := &experiments.Health{}
			s := sp.child("experiments.run_all")
			err := runAll(&report, experiments.Options{
				Quick: true, Seed: seed, Workers: loadWidth, Progress: &progress, Health: health,
			})
			s.end()
			if err != nil {
				return repOut{}, err
			}
			out := repOut{seconds: experimentSeconds(progress.String())}
			out.ops = strings.Count(report.String(), "\n=== experiment ")
			var problems []string
			if want != nil && !bytes.Equal(report.Bytes(), want) {
				problems = append(problems, "report differs from "+golden)
			}
			if health.Unhealthy() {
				problems = append(problems, health.Summary())
			}
			if out.ops != sections {
				problems = append(problems, fmt.Sprintf("%d report sections, want %d", out.ops, sections))
			}
			if len(problems) > 0 {
				out.failed = out.ops
				return out, fmt.Errorf("paper-quick: %s", strings.Join(problems, "; "))
			}
			sum := sha256.Sum256(report.Bytes())
			out.digest = hex.EncodeToString(sum[:8])
			return out, nil
		}, nil
	}}
}

var progressLine = regexp.MustCompile(`^experiment (\S+)\s+done in\s+([0-9.]+)s$`)

// experimentSeconds reads RunAll's progress lines into
// experiments.{hyper,scale,rest}_s: the two datacenter-scale
// experiments, and every other experiment summed.
func experimentSeconds(progress string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(progress, "\n") {
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		secs, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		switch m[1] {
		case "hyper", "scale":
			out["experiments."+m[1]+"_s"] += secs
		default:
			out["experiments.rest_s"] += secs
		}
	}
	return out
}

// simFleet runs a fleet of n VMs on the given host classes for the
// horizon, once per policy, each on a Fork of one Prototype: the
// paper's policy comparison at datacenter scale.
func simFleet(name string, classes []agilepower.HostClass, fleet func(n int, seed uint64) []agilepower.VMSpec,
	n int, horizon time.Duration, policies []agilepower.Policy) workload {
	return workload{name: name, freshInputs: true, setup: func(seed uint64, sp span) (runFunc, error) {
		b := sp.child("fleet.build")
		sc := agilepower.Scenario{
			Name:        name,
			HostClasses: classes,
			VMs:         fleet(n, seed),
			Horizon:     horizon,
			Seed:        seed,
		}
		b.end()
		p := sp.child("world.prototype")
		proto, err := sc.Prototype()
		p.end()
		if err != nil {
			return nil, err
		}
		return func(sp span) (repOut, error) {
			out := repOut{counts: map[string]float64{}}
			var results []*agilepower.Result
			for _, pol := range policies {
				cell := sc
				cell.Manager.Policy = pol
				f := sp.child("world.fork")
				se, err := proto.Fork(cell)
				f.end()
				if err != nil {
					return out, fmt.Errorf("%s %s: %w", name, pol.Name, err)
				}
				res, err := runToHorizon(sp, se, horizon)
				if err != nil {
					return out, fmt.Errorf("%s %s: %w", name, pol.Name, err)
				}
				out.ops++
				addResult(out.counts, res)
				if res.StrandedVMs > 0 || (pol.Name == agilepower.Static.Name && (res.Migrations.Started > 0 || res.Sleeps > 0)) {
					out.failed++
				}
				results = append(results, res)
			}
			out.digest = digestResults(results)
			if out.failed > 0 {
				return out, fmt.Errorf("%s: %d of %d runs failed their checks", name, out.failed, out.ops)
			}
			return out, nil
		}, nil
	}}
}

// runToHorizon runs a started session to the horizon and collects its
// Result.
func runToHorizon(sp span, se *agilepower.Session, horizon time.Duration) (*agilepower.Result, error) {
	r := sp.child("session.run")
	err := se.RunUntil(horizon)
	r.end()
	if err != nil {
		return nil, err
	}
	f := sp.child("session.result")
	defer f.end()
	return se.Result(), nil
}

// opsChaos is scenarios/ops-day.json scaled by k hosts and VMs (power
// cap and host targets scale with it) over the given hours, plus three
// chaos patterns and a closing fault freeze, built from the seed and
// read through ParseScenario. Its assertions must all pass with no VM
// stranded.
func opsChaos(k int, hours float64) workload {
	return workload{name: "ops-chaos", freshInputs: true, setup: func(seed uint64, sp span) (runFunc, error) {
		p := sp.child("scenario.parse")
		sc, err := agilepower.ParseScenario(opsChaosFile(k, hours, seed))
		p.end()
		if err != nil {
			return nil, err
		}
		s := sp.child("session.start")
		se, err := sc.Start()
		s.end()
		if err != nil {
			return nil, err
		}
		return func(sp span) (repOut, error) {
			res, err := runToHorizon(sp, se, sc.Horizon)
			if err != nil {
				return repOut{}, err
			}
			out := repOut{ops: 1, counts: map[string]float64{}, digest: digestResults([]*agilepower.Result{res})}
			addResult(out.counts, res)
			if res.AssertionFailures > 0 || res.StrandedVMs > 0 {
				out.failed = 1
				return out, fmt.Errorf("ops-chaos: %d failed assertion(s), %d stranded VM(s)", res.AssertionFailures, res.StrandedVMs)
			}
			return out, nil
		}, nil
	}}
}

// opsChaosFile renders the scaled ops-day scenario file.
func opsChaosFile(k int, hours float64, seed uint64) []byte {
	hosts := func(a, b int) string { return fmt.Sprintf("host-%d..%d", (a-1)*k+1, b*k) }
	f := agilepower.ScenarioFile{
		Name:  "ops-chaos",
		Hosts: 32 * k,
		Fleets: []agilepower.FleetFile{
			{Kind: "diurnal", Count: 48 * k},
			{Kind: "spiky", Count: 24 * k, Spikes: 4},
			{Kind: "batch", Count: 16 * k},
		},
		HorizonHours: hours,
		Policy:       "dpm-s3",
		Seed:         seed,
		Faults:       &agilepower.FaultsFile{Rate: 0.1},
		CtrlPlane:    &agilepower.CtrlPlaneFile{DelayMS: 50, Loss: 0.01},
		Events: []agilepower.EventFile{
			{At: "2h", Action: "crash", Target: hosts(5, 5), Repair: "20m"},
			{At: "6h", Action: "maintenance", Target: hosts(9, 10)},
			{At: "8h", Action: "maintenance-end", Target: hosts(9, 10)},
			{At: "10h", Action: "demand-surge", Fleet: "web", Factor: 2, Duration: "2h"},
			{At: "14h", Action: "power-cap", Watts: 5000 * float64(k), Duration: "2h"},
			{At: "18h", Action: "fault-rate", Rate: 0.5, Duration: "1h"},
			{At: "20h", Action: "ctrl-degrade", Delay: "300ms", Loss: 0.1, Duration: "1h"},
			// A closing change freeze: with faults on to the end, about
			// two inputs in a hundred end with a crashed host's VMs still
			// waiting for repair, and the run fails its stranded-VM check
			// for an input's luck, not the program's fault.
			{At: "22h", Action: "fault-rate", Rate: 0},
		},
		Chaos: []agilepower.ChaosFile{
			{Pattern: agilepower.ChaosAZOutage, Intensity: 0.5},
			{Pattern: agilepower.ChaosFlakyResume, Intensity: 0.5},
			{Pattern: agilepower.ChaosCascadingFailure, Intensity: 0.5},
		},
		Assert: []agilepower.AssertFile{
			{Kind: "no-pending-vm", From: "1h", Over: "1h"},
			{Kind: "sla-violation-max", Frac: 0.3},
			{Kind: "satisfaction-min", Frac: 0.7},
		},
	}
	data, err := json.Marshal(f)
	if err != nil {
		panic(err) // a ScenarioFile literal always marshals
	}
	return data
}

// service drives an in-process server (two job workers) over HTTP with
// a closed loop of two clients sending POSTs to
// /v1/scenarios?wait=1. Every fourth request carries a fresh seed and
// runs cold; the rest repeat four shapes that set-up warmed, so each is
// a cache hit whose body must equal the cold body of its shape.
func service(requests, hosts, vms int, hours float64) workload {
	return workload{name: "service", setup: func(seed uint64, sp span) (runFunc, error) {
		st := sp.child("service.start")
		srv := api.NewServer(api.Config{Workers: loadWidth})
		ts := httptest.NewServer(srv.Handler())
		st.end()
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadWidth, MaxIdleConnsPerHost: loadWidth}}
		shutdown := func() {
			client.CloseIdleConnections()
			ts.Close()
			_ = srv.Close() // force-drains the queue; it reports no error
		}
		body := func(s uint64) []byte {
			data, err := json.Marshal(agilepower.ScenarioFile{
				Hosts:        hosts,
				Fleets:       []agilepower.FleetFile{{Kind: "mixed", Count: vms}},
				HorizonHours: hours,
				Policy:       "dpm-s3",
				Seed:         s,
			})
			if err != nil {
				panic(err) // a ScenarioFile literal always marshals
			}
			return data
		}
		const shapes = 4
		warm := make([][]byte, shapes)
		for i := range warm {
			w := sp.child("service.warm")
			resp, err := post(client, ts.URL, body(subSeed(seed, uint64(i))))
			w.end()
			if err == nil && resp.cache != "miss" {
				err = fmt.Errorf("warm-up request served as %q, want miss", resp.cache)
			}
			if err != nil {
				shutdown()
				return nil, err
			}
			warm[i] = resp.body
		}
		before, err := scrape(client, ts.URL)
		if err != nil {
			shutdown()
			return nil, err
		}
		return func(sp span) (repOut, error) {
			defer shutdown()
			cold := make([][]byte, requests)
			lat := make([]float64, requests)
			isCold := func(i int) bool { return i%4 == 0 }
			var next, failed atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < loadWidth; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if i >= requests {
							return
						}
						var req []byte
						want, wantCache := []byte(nil), "miss"
						if isCold(i) {
							req = body(subSeed(seed, uint64(shapes+i)))
						} else {
							k := (i / 4) % shapes
							req, want, wantCache = body(subSeed(seed, uint64(k))), warm[k], "hit"
						}
						r := sp.child("service.request")
						t0 := time.Now()
						resp, err := post(client, ts.URL, req)
						lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
						r.end()
						if err != nil || resp.cache != wantCache || (want != nil && !bytes.Equal(resp.body, want)) {
							failed.Add(1)
							continue
						}
						if isCold(i) {
							cold[i] = resp.body
						}
					}
				}()
			}
			wg.Wait()
			after, err := scrape(client, ts.URL)
			if err != nil {
				return repOut{}, err
			}
			out := repOut{ops: requests, failed: int(failed.Load()), counts: map[string]float64{}}
			for name, v := range after {
				out.counts[name] = v - before[name]
			}
			if runs := out.counts["service.runs"]; runs > 0 {
				out.seconds = map[string]float64{"service.run_wall_s": out.counts["service.run_wall_sum_s"] / runs}
			}
			h := sha256.New()
			for i := range cold {
				if isCold(i) {
					out.coldMS = append(out.coldMS, lat[i])
					h.Write(cold[i])
				} else {
					out.hitMS = append(out.hitMS, lat[i])
				}
			}
			out.digest = hex.EncodeToString(h.Sum(nil)[:8])
			if out.failed > 0 {
				return out, fmt.Errorf("service: %d of %d requests failed or returned the wrong body", out.failed, requests)
			}
			return out, nil
		}, nil
	}}
}

type response struct {
	cache string
	body  []byte
}

// post submits one scenario file and waits for its result.
func post(c *http.Client, base string, body []byte) (response, error) {
	resp, err := c.Post(base+"/v1/scenarios?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, fmt.Errorf("POST /v1/scenarios: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return response{cache: resp.Header.Get("X-Cache"), body: data}, nil
}

// scrapeNames maps /metrics series to per-layer names.
var scrapeNames = map[string]string{
	"agilepower_run_wall_seconds_sum":   "service.run_wall_sum_s",
	"agilepower_run_wall_seconds_count": "service.runs",
	"agilepower_cache_hits_total":       "rescache.hits",
	"agilepower_cache_misses_total":     "rescache.misses",
	"agilepower_jobs_failed_total":      "jobs.failed",
}

// scrape reads the server's counters from GET /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if name, ok := scrapeNames[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
			}
			out[name] = v
		}
	}
	if len(out) != len(scrapeNames) {
		return nil, fmt.Errorf("GET /metrics: found %d of %d series", len(out), len(scrapeNames))
	}
	return out, nil
}

// subSeed derives the i-th input seed from the workload seed
// (splitmix64), never 0.
func subSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// addResult adds a Result's exact counts to per-layer values.
func addResult(m map[string]float64, r *agilepower.Result) {
	m["cluster.eval_ticks"] += float64(r.EvalTicks)
	m["cluster.host_evals"] += float64(r.HostEvals)
	m["cluster.host_slots"] += float64(r.EvalTicks) * float64(r.Hosts)
	m["core.control_steps"] += float64(r.Manager.ControlSteps)
	m["core.migrations_rejected"] += float64(r.Manager.MigrationsFailed)
	m["migrate.started"] += float64(r.Migrations.Started)
	m["migrate.completed"] += float64(r.Migrations.Completed)
	m["migrate.aborted"] += float64(r.Migrations.Aborted)
	m["power.sleeps"] += float64(r.Sleeps)
	m["power.wakes"] += float64(r.Wakes)
	m["ctrlplane.cmd_retries"] += float64(r.FaultCounters["cmd_retries"])
	m["ctrlplane.cmd_nacks"] += float64(r.FaultCounters["cmd_nacks"])
	m["ctrlplane.report_drops"] += float64(r.FaultCounters["report_drops"])
	m["events.logged"] += float64(r.Events.Len())
}

// digestResults hashes the simulated statistics of a repetition's runs:
// policy, energy bits, satisfaction, violation fraction, migrations,
// sleeps and wakes. EvalTicks and HostEvals stay out: they are
// execution diagnostics that differ between evaluation modes.
func digestResults(rs []*agilepower.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s %x %x %x %d %d %d\n", r.Policy,
			math.Float64bits(float64(r.Energy)), math.Float64bits(r.Satisfaction),
			math.Float64bits(r.ViolationFraction), r.Migrations.Completed, r.Sleeps, r.Wakes)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
