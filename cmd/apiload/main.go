// Command apiload drives concurrent load against a running agilepmd
// and gates on the outcome: N session goroutines each issue a mix of
// hot (repeated-shape, cache-hittable) and cold (unique-seed) blocking
// scenario submissions (POST /v1/scenarios?wait=1, the tenant passed
// as ?tenant=), latencies are recorded per request and tagged by
// the server's X-Cache disposition, and the process exits nonzero if
// any request failed or the observed cache hit rate fell below the
// floor. It is the acceptance harness for the async simulation
// service: zero failed jobs at a thousand concurrent sessions, and
// cache hits orders of magnitude faster than cold runs.
//
// Results print as Go benchmark lines on stdout so cmd/benchjson can
// record them into a JSON artifact:
//
//	apiload -addr http://localhost:8080 -sessions 1000 > bench.txt
//	go run ./cmd/benchjson -label api-load -out BENCH_api.json < bench.txt
//
// The human-readable summary (percentiles, throughput, hit rate) goes
// to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "agilepmd base URL")
	sessions := flag.Int("sessions", 1000, "concurrent client sessions")
	perSession := flag.Int("per-session", 2, "requests per session")
	shapes := flag.Int("shapes", 4, "distinct hot request shapes shared across sessions")
	coldEvery := flag.Int("cold-every", 4, "every Nth request per session uses a unique seed (0 = never)")
	tenants := flag.Int("tenants", 8, "tenants to spread sessions across")
	hosts := flag.Int("hosts", 4, "hosts per scenario")
	vms := flag.Int("vms", 8, "flat VMs per scenario")
	horizon := flag.Float64("horizon-hours", 1, "simulated hours per scenario")
	waitReady := flag.Duration("wait-ready", 30*time.Second, "how long to poll /healthz before giving up")
	maxFailed := flag.Int("max-failed", 0, "maximum tolerated failed requests")
	minHitRate := flag.Float64("min-hit-rate", 0, "minimum cache hit rate across the concurrent burst")
	probeHits := flag.Int("probe-hits", 25, "sequential cache-hit probes per shape before the burst (0 disables the probe phase)")
	probeHosts := flag.Int("probe-hosts", 48, "hosts per probe request (heavier than the burst so the cold/hit gap measures the simulation)")
	probeVMs := flag.Int("probe-vms", 192, "vms per probe request")
	probeHorizon := flag.Float64("probe-horizon-hours", 24, "simulated hours per probe request")
	minSpeedup := flag.Float64("min-hit-speedup", 0, "minimum probe cold-mean / hit-mean ratio (0 = no gate)")
	flag.Parse()

	if err := waitHealthy(*addr, *waitReady); err != nil {
		fmt.Fprintf(os.Stderr, "apiload: %v\n", err)
		os.Exit(1)
	}

	client := &http.Client{
		Timeout: 10 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *sessions + 16,
			MaxIdleConnsPerHost: *sessions + 16,
		},
	}

	type sample struct {
		d   time.Duration
		hit bool
	}
	var (
		mu      sync.Mutex
		samples []sample
		failed  atomic.Int64
		coldSeq atomic.Uint64
	)
	coldSeq.Store(1 << 20) // unique seeds, disjoint from hot shapes

	body := func(hosts, vms int, horizon float64, seed uint64) string {
		return fmt.Sprintf(
			`{"hosts":%d,"fleets":[{"kind":"flat","count":%d,"demand":0.5}],"horizonHours":%g,"seed":%d}`,
			hosts, vms, horizon, seed)
	}
	post := func(payload string, tenant int) (time.Duration, bool, error) {
		began := time.Now()
		resp, err := client.Post(fmt.Sprintf("%s/v1/scenarios?wait=1&tenant=t%d", *addr, tenant),
			"application/json", strings.NewReader(payload))
		if err != nil {
			return 0, false, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, false, fmt.Errorf("status %d", resp.StatusCode)
		}
		return time.Since(began), resp.Header.Get("X-Cache") == "hit", nil
	}

	// Probe phase: sequential, uncontended requests per hot shape — one
	// cold (populating the cache) and probe-hits repeated hits — so the
	// recorded cold-vs-hit latency comparison measures the cache, not
	// scheduling contention during the burst.
	var probeCold, probeHot []time.Duration
	if *probeHits > 0 {
		for shape := 1; shape <= *shapes; shape++ {
			payload, tenant := body(*probeHosts, *probeVMs, *probeHorizon, uint64(shape)), shape%*tenants
			d, hit, err := post(payload, tenant)
			if err != nil {
				fmt.Fprintf(os.Stderr, "apiload: probe shape %d: %v\n", shape, err)
				os.Exit(2)
			}
			if !hit {
				probeCold = append(probeCold, d)
			}
			for i := 0; i < *probeHits; i++ {
				d, hit, err := post(payload, tenant)
				if err != nil || !hit {
					fmt.Fprintf(os.Stderr, "apiload: probe shape %d hit %d: err=%v hit=%v\n", shape, i, err, hit)
					os.Exit(2)
				}
				probeHot = append(probeHot, d)
			}
		}
		report(os.Stderr, "probe-cold", probeCold)
		report(os.Stderr, "probe-hit", probeHot)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < *sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < *perSession; i++ {
				seed := uint64(s*(*perSession)+i)%uint64(*shapes) + 1
				if *coldEvery > 0 && i%*coldEvery == *coldEvery-1 {
					seed = coldSeq.Add(1)
				}
				d, hit, err := post(body(*hosts, *vms, *horizon, seed), s%*tenants)
				if err != nil {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "apiload: session %d: %v\n", s, err)
					continue
				}
				mu.Lock()
				samples = append(samples, sample{d: d, hit: hit})
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all, hot, cold []time.Duration
	for _, sm := range samples {
		all = append(all, sm.d)
		if sm.hit {
			hot = append(hot, sm.d)
		} else {
			cold = append(cold, sm.d)
		}
	}
	total := len(all) + int(failed.Load())
	hitRate := 0.0
	if len(all) > 0 {
		hitRate = float64(len(hot)) / float64(len(all))
	}
	rps := float64(len(all)) / elapsed.Seconds()

	fmt.Fprintf(os.Stderr, "apiload: %d sessions x %d requests: %d ok, %d failed in %v (%.1f req/s, hit rate %.3f)\n",
		*sessions, *perSession, len(all), failed.Load(), elapsed.Round(time.Millisecond), rps, hitRate)
	report(os.Stderr, "all", all)
	report(os.Stderr, "hot", hot)
	report(os.Stderr, "cold", cold)

	// Benchmark lines for cmd/benchjson. Iteration counts carry the
	// sample sizes; the ns/op values are the statistics themselves. The
	// probe pair is the clean cache comparison (sequential requests, no
	// contention); the burst lines are behavior under full concurrency.
	benchLine("BenchmarkAPIColdProbeMean", len(probeCold), mean(probeCold))
	benchLine("BenchmarkAPIHitProbeMean", len(probeHot), mean(probeHot))
	benchLine("BenchmarkAPIHitProbeP99", len(probeHot), percentile(probeHot, 99))
	benchLine("BenchmarkAPIRequestMean", len(all), mean(all))
	benchLine("BenchmarkAPIRequestP50", len(all), percentile(all, 50))
	benchLine("BenchmarkAPIRequestP95", len(all), percentile(all, 95))
	benchLine("BenchmarkAPIRequestP99", len(all), percentile(all, 99))
	benchLine("BenchmarkAPIHotRequestMean", len(hot), mean(hot))
	benchLine("BenchmarkAPIHotRequestP99", len(hot), percentile(hot, 99))
	benchLine("BenchmarkAPIColdRequestMean", len(cold), mean(cold))
	benchLine("BenchmarkAPIColdRequestP99", len(cold), percentile(cold, 99))
	if rps > 0 {
		benchLine("BenchmarkAPIThroughput", len(all), time.Duration(float64(time.Second)/rps))
	}

	if int(failed.Load()) > *maxFailed {
		fmt.Fprintf(os.Stderr, "apiload: FAIL: %d failed requests (max %d)\n", failed.Load(), *maxFailed)
		os.Exit(2)
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "apiload: FAIL: no requests issued")
		os.Exit(2)
	}
	if hitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "apiload: FAIL: hit rate %.3f below floor %.3f\n", hitRate, *minHitRate)
		os.Exit(2)
	}
	if len(probeCold) > 0 && len(probeHot) > 0 {
		speedup := float64(mean(probeCold)) / float64(mean(probeHot))
		fmt.Fprintf(os.Stderr, "apiload: cache-hit speedup: %.0fx (cold %v vs hit %v)\n",
			speedup, mean(probeCold).Round(time.Microsecond), mean(probeHot).Round(time.Microsecond))
		if *minSpeedup > 0 && speedup < *minSpeedup {
			fmt.Fprintf(os.Stderr, "apiload: FAIL: speedup %.0fx below floor %.0fx\n", speedup, *minSpeedup)
			os.Exit(2)
		}
	}
}

// waitHealthy polls /healthz until the daemon answers (the container
// has no curl; the harness is its own readiness probe).
func waitHealthy(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %v", timeout, err)
			}
			return fmt.Errorf("server not ready after %v", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func report(w io.Writer, label string, ds []time.Duration) {
	if len(ds) == 0 {
		fmt.Fprintf(w, "apiload: %5s: no samples\n", label)
		return
	}
	fmt.Fprintf(w, "apiload: %5s: n=%d mean=%v p50=%v p95=%v p99=%v\n",
		label, len(ds), mean(ds).Round(time.Microsecond),
		percentile(ds, 50).Round(time.Microsecond),
		percentile(ds, 95).Round(time.Microsecond),
		percentile(ds, 99).Round(time.Microsecond))
}

func benchLine(name string, n int, d time.Duration) {
	if n == 0 {
		return
	}
	fmt.Printf("%s %d %d ns/op\n", name, n, d.Nanoseconds())
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// percentile returns the pth percentile by nearest-rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
