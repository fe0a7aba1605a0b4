package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/policies")
	if err != nil {
		t.Fatal(err)
	}
	policies := decode[[]map[string]any](t, resp)
	if len(policies) != 4 {
		t.Fatalf("policies = %d, want 4", len(policies))
	}
	names := map[string]bool{}
	for _, p := range policies {
		names[p["name"].(string)] = true
	}
	if !names["dpm-s3"] || !names["static"] {
		t.Fatalf("policy names = %v", names)
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/profile")
	if err != nil {
		t.Fatal(err)
	}
	profile := decode[map[string]any](t, resp)
	if profile["peakPowerW"].(float64) != 250 {
		t.Fatalf("peak = %v", profile["peakPowerW"])
	}
	states := profile["sleepStates"].(map[string]any)
	s3 := states["S3"].(map[string]any)
	if s3["exitSecs"].(float64) != 15 {
		t.Fatalf("S3 exit = %v", s3["exitSecs"])
	}
	if s3["breakEvenSecs"].(float64) < 30 || s3["breakEvenSecs"].(float64) > 60 {
		t.Fatalf("S3 break-even = %v", s3["breakEvenSecs"])
	}
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader(body))
}

func TestCreateAndFetchRun(t *testing.T) {
	ts := newTestServer(t)
	resp, err := postRun(t, ts, `{"hosts":4,"vms":8,"fleet":"flat","flatDemand":0.5,"horizonHours":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	run := decode[RunResponse](t, resp)
	if run.ID != 1 || run.Policy != "dpm-s3" {
		t.Fatalf("run = %+v", run)
	}
	if run.EnergyKWh <= 0 || run.Satisfaction <= 0 {
		t.Fatalf("metrics missing: %+v", run)
	}
	if run.OracleKWh <= 0 || run.OracleKWh >= run.EnergyKWh {
		t.Fatalf("oracle bound = %v vs energy %v", run.OracleKWh, run.EnergyKWh)
	}

	// Fetch it back.
	resp2, err := http.Get(ts.URL + "/api/runs/1")
	if err != nil {
		t.Fatal(err)
	}
	got := decode[RunResponse](t, resp2)
	if got != run {
		t.Fatalf("fetched %+v, created %+v", got, run)
	}

	// List contains it.
	resp3, err := http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]RunResponse](t, resp3)
	if len(list) != 1 || list[0].ID != 1 {
		t.Fatalf("list = %+v", list)
	}
}

func TestCreateRunValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"zero hosts", `{"hosts":0,"vms":4,"fleet":"flat"}`},
		{"too many hosts", `{"hosts":9999999,"vms":4,"fleet":"flat"}`},
		{"zero vms", `{"hosts":4,"vms":0,"fleet":"flat"}`},
		{"bad fleet", `{"hosts":4,"vms":4,"fleet":"quantum"}`},
		{"bad policy", `{"hosts":4,"vms":4,"fleet":"flat","policy":"yolo"}`},
		{"horizon too long", `{"hosts":4,"vms":4,"fleet":"flat","horizonHours":100000}`},
		{"negative shards", `{"hosts":4,"vms":4,"fleet":"flat","shards":-1}`},
		{"negative telemetry cap", `{"hosts":4,"vms":4,"fleet":"flat","telemetryCap":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postRun(t, ts, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestGetRunNotFound(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/runs/42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/api/runs/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp2.StatusCode)
	}
}

func TestRunSeriesCSV(t *testing.T) {
	ts := newTestServer(t)
	if _, err := postRun(t, ts, `{"hosts":2,"vms":4,"fleet":"flat","horizonHours":1}`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/runs/1/series?step=15m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasPrefix(body, "offset_seconds,") {
		t.Fatalf("csv header missing: %q", body)
	}
	// 1h at 15m step → header + 4 rows.
	if lines := strings.Count(strings.TrimSpace(body), "\n"); lines != 4 {
		t.Fatalf("csv rows = %d, want 4", lines)
	}
	// Bad step rejected.
	resp2, err := http.Get(ts.URL + "/api/runs/1/series?step=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad step status = %d", resp2.StatusCode)
	}
}

func TestChurnOverAPI(t *testing.T) {
	ts := newTestServer(t)
	resp, err := postRun(t, ts, `{"hosts":4,"vms":4,"fleet":"flat","horizonHours":6,
		"churn":{"arrivalsPerHour":4,"meanLifetimeHours":1}}`)
	if err != nil {
		t.Fatal(err)
	}
	run := decode[RunResponse](t, resp)
	if run.ChurnArrived == 0 || run.ChurnPlaced == 0 {
		t.Fatalf("churn not reported: %+v", run)
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/experiments")
	if err != nil {
		t.Fatal(err)
	}
	ids := decode[[]string](t, resp)
	if len(ids) < 10 {
		t.Fatalf("experiment ids = %v", ids)
	}
	resp2, err := http.Post(ts.URL+"/api/experiments/t1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "power-state characterization") {
		t.Fatalf("experiment output: %q", string(raw))
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	// GET on a POST-only route is rejected by the mux.
	resp, err := http.Get(ts.URL + "/api/experiments/t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}
