package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agilepower"
	"agilepower/internal/jobs"
)

// overflowBodies are scenario files whose host or VM counts wrapped
// around a plain int sum or product, or multiplied two negatives, into
// a small total that passed the admission budget, plus counts the
// budget must refuse on their own: a negative one, and one that alone
// is past the budget. Each sets a short horizon so that, as a fuzz
// seed, only the count budget can refuse it.
var overflowBodies = map[string]string{
	// 2^62 × 3 + (2^62 + 5) sums to 5 in int64.
	"host classes wrap": `{"hostClasses":[{"count":4611686018427387904},{"count":4611686018427387904},` +
		`{"count":4611686018427387904},{"count":4611686018427387909}],"fleets":[{"kind":"flat","count":2}],"horizonHours":1}`,
	// 2^62 × 3 + (2^62 + 10) sums to 10.
	"mixed fleets wrap": `{"hosts":4,"fleets":[{"kind":"mixed","count":4611686018427387904},` +
		`{"kind":"mixed","count":4611686018427387904},{"kind":"mixed","count":4611686018427387904},` +
		`{"kind":"mixed","count":4611686018427387914}],"horizonHours":1}`,
	// −2 services × −5 replicas counts as 10 VMs.
	"negative replicated": `{"hosts":4,"fleets":[{"kind":"replicated","services":-2,"replicas":-5}],"horizonHours":1}`,
	// 2^32 services × 2^32 replicas wraps to 0, plus 2 flat VMs.
	"replicated product wraps": `{"hosts":4,"fleets":[{"kind":"replicated","services":4294967296,"replicas":4294967296},` +
		`{"kind":"flat","count":2}],"horizonHours":1}`,
	// 2^62 + (4 − 2^62) sums to 4; the first class alone is past the budget.
	"huge class offset by a negative one": `{"hostClasses":[{"count":4611686018427387904},{"count":-4611686018427387900}],` +
		`"fleets":[{"kind":"flat","count":2}],"horizonHours":1}`,
	// The fleet builders would read −3 as one VM; admission refuses it.
	"negative fleet count": `{"hosts":4,"fleets":[{"kind":"flat","count":-3}],"horizonHours":1}`,
}

// invalidBodies are scenario files the service must refuse with 400
// for reasons other than a wrapped count: malformed JSON, counts or a
// horizon outside the default budget, names the builders do not know,
// negative knobs, the retired "shards" and "delta" keys, churn whose
// expected arrivals pass the VM budget, and data after the scenario
// object.
var invalidBodies = []struct{ name, body string }{
	{"bad json", `{`},
	{"zero hosts", `{"hosts":0,"fleets":[{"kind":"flat","count":4}]}`},
	{"too many hosts", `{"hosts":9999999,"fleets":[{"kind":"flat","count":4}]}`},
	{"zero vms", `{"hosts":4,"fleets":[]}`},
	{"bad fleet", `{"hosts":4,"fleets":[{"kind":"quantum","count":4}]}`},
	{"bad policy", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"policy":"yolo"}`},
	{"horizon too long", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"horizonHours":100000}`},
	// Every simulation evaluates on one goroutine; the shard key is gone.
	{"negative shards", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"shards":-1}`},
	{"negative telemetry cap", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"telemetryCap":-1}`},
	// Every tick is event-driven now; the evaluation-mode key is gone.
	{"delta", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"delta":true}`},
	// 1e13 arrivals in one hour. The mean arrival gap also rounds to
	// 0 ns, so an admitted job would never leave simulated time 0 s.
	{"churn past the vm budget", `{"hosts":2,"fleets":[{"kind":"flat","count":1}],"horizonHours":1,` +
		`"churn":{"arrivalsPerHour":1e13}}`},
	// 7.2e12 arrivals an hour for 504 µs: 1,008,001 expected VMs, inside
	// the default budget, but the mean arrival gap rounds to 0 ns.
	{"churn gap rounds to zero", `{"hosts":2,"fleets":[{"kind":"flat","count":1}],"horizonHours":1.4e-7,` +
		`"churn":{"arrivalsPerHour":7.2e12}}`},
	// ParseScenario refuses the second object; so must the service.
	{"trailing data", `{"hosts":2,"fleets":[{"kind":"flat","count":2}],"horizonHours":1}{"hosts":99999999}`},
}

// omittedHorizonBody runs the scenario default of 24 h, which a budget
// below that must refuse.
const omittedHorizonBody = `{"hosts":2,"fleets":[{"kind":"flat","count":2}]}`

// TestSubmitScenarioRejectsOverflowingCounts pins the admission fix:
// every count is checked against the budget on its own, negative
// counts are refused, and the sum stops once it passes the budget.
func TestSubmitScenarioRejectsOverflowingCounts(t *testing.T) {
	_, ts := newService(t, Config{})
	for name, body := range overflowBodies {
		t.Run(name, func(t *testing.T) {
			resp := postURL(t, ts.URL+"/v1/scenarios", body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestSubmitScenarioBudgetsOmittedHorizon pins that a scenario file
// without a horizon is budgeted as the 24 h it runs: a server whose
// budget is 6 h refuses it, and admits the same file at 6 h.
func TestSubmitScenarioBudgetsOmittedHorizon(t *testing.T) {
	_, ts := newService(t, Config{MaxHorizon: 6 * time.Hour})
	resp := postURL(t, ts.URL+"/v1/scenarios", omittedHorizonBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("omitted horizon: status %d, want 400", resp.StatusCode)
	}
	resp = postURL(t, ts.URL+"/v1/scenarios?wait=1", `{"hosts":2,"fleets":[{"kind":"flat","count":2}],"horizonHours":6}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("6 h horizon: status %d, want 200", resp.StatusCode)
	}
}

// FuzzSubmitScenario throws arbitrary bodies at POST /v1/scenarios on
// a server with a tiny admission budget. Every body must be refused
// with a 4xx, or admitted as a scenario that ParseScenario also
// accepts, within MaxHosts and MaxHorizon, and whose VMs plus expected
// churn arrivals stay within MaxVMs; nothing may panic or answer 5xx.
// The server's job queue is never started, so admitted scenarios are
// inspected, never run.
func FuzzSubmitScenario(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, body := range overflowBodies {
		f.Add(body)
	}
	for _, tc := range invalidBodies {
		f.Add(tc.body)
	}
	f.Add(omittedHorizonBody)
	f.Add(`{"hosts":4,"fleets":[{"kind":"diurnal","count":8}],"horizonHours":2}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"workday","count":1,"days":200000}],"horizonHours":2}`)
	f.Add(`{"hosts":4,"fleets":[{"kind":"spiky","count":1,"spikes":1000000000}],"horizonHours":2}`)
	f.Add(`{"hostClasses":[{"count":2,"cores":32},{"count":2}],"fleets":[{"kind":"replicated","services":3,"replicas":2}],"horizonHours":3}`)

	cfg := Config{Workers: 1, QueueDepth: 4, MaxHosts: 8, MaxVMs: 16, MaxHorizon: 6 * time.Hour}
	s := NewServer(cfg)
	_ = s.Close()
	s.queue = jobs.New(jobs.Config{Workers: 1, MaxQueued: 4}, s.runJob)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(body)))
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
		j, ok := s.queue.Get(sub.Job.ID)
		if !ok {
			t.Fatalf("admitted job %q not queued", sub.Job.ID)
		}
		defer s.queue.Cancel(j.ID())
		if _, err := agilepower.ParseScenario([]byte(body)); err != nil {
			t.Fatalf("admitted a body ParseScenario refuses (%v): %q", err, body)
		}
		sc := j.Payload().(*runPayload).sc
		hosts := sc.Hosts
		if len(sc.HostClasses) > 0 {
			hosts = 0
			for _, hc := range sc.HostClasses {
				// Bound each class before summing, or a wrapped sum
				// would pass here exactly as it once passed admission.
				if hc.Count < 1 || hc.Count > cfg.MaxHosts {
					t.Fatalf("admitted a host class of %d: %q", hc.Count, body)
				}
				hosts += hc.Count
			}
		}
		horizon := sc.Horizon
		if horizon == 0 {
			horizon = 24 * time.Hour
		}
		arrivals := 0.0
		if sc.Churn != nil {
			arrivals = sc.Churn.ArrivalsPerHour * horizon.Hours()
		}
		if hosts < 1 || hosts > cfg.MaxHosts || len(sc.VMs) < 1 || float64(len(sc.VMs))+arrivals > float64(cfg.MaxVMs) ||
			horizon < 0 || horizon > cfg.MaxHorizon {
			t.Fatalf("admitted %d hosts, %d VMs + %g expected arrivals, horizon %v past the budget: %q",
				hosts, len(sc.VMs), arrivals, horizon, body)
		}
	})
}
