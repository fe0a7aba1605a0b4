package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agilepower/internal/jobs"
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

// TestCreateAndFetchRun runs a scenario with ?wait=1 and fetches it
// back: the job the response names is done, its stored result is the
// bytes the blocking call returned, and the job list holds it.
func TestCreateAndFetchRun(t *testing.T) {
	ts := newTestServer(t)
	st, xc, created, id := postWaitJob(t, ts.URL, smallRun)
	if st != http.StatusOK || xc != "miss" || id == "" {
		t.Fatalf("create: status %d X-Cache %q X-Job-Id %q", st, xc, id)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(fetched, created) {
		t.Fatalf("fetched status %d body %s, created %s", resp.StatusCode, fetched, created)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if job := decode[jobs.Status](t, resp); job.State != "done" || job.Cached {
		t.Fatalf("job = %+v", job)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if list := decode[[]jobs.Status](t, resp); len(list) != 1 || list[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
}

// TestCreateRunValidation posts each of invalidBodies and expects 400;
// the retired "delta" key must be refused by name.
func TestCreateRunValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range invalidBodies {
		t.Run(tc.name, func(t *testing.T) {
			resp := postURL(t, ts.URL+"/v1/scenarios", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			retired := map[string]string{"delta": "delta", "negative shards": "shards"}
			if key := retired[tc.name]; key != "" && !strings.Contains(e.Error, `"`+key+`"`) {
				t.Fatalf("error %q does not name the key", e.Error)
			}
		})
	}
}

// TestGetRunNotFound: every route that names a job answers 404 for an
// unknown one, numeric or not.
func TestGetRunNotFound(t *testing.T) {
	ts := newTestServer(t)
	for _, id := range []string{"42", "notanumber"} {
		for _, route := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + id},
			{http.MethodGet, "/v1/jobs/" + id + "/result"},
			{http.MethodGet, "/v1/jobs/" + id + "/stream"},
			{http.MethodDelete, "/v1/jobs/" + id},
		} {
			req, err := http.NewRequest(route.method, ts.URL+route.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s: status = %d, want 404", route.method, route.path, resp.StatusCode)
			}
		}
	}
}

// TestChurnOverAPI runs a churn scenario and checks the result reports
// its arrivals and placements.
func TestChurnOverAPI(t *testing.T) {
	ts := newTestServer(t)
	st, _, raw := postWait(t, ts.URL, `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"horizonHours":6,
		"churn":{"arrivalsPerHour":4,"meanLifetimeHours":1}}`)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, raw)
	}
	var run RunResult
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if run.ChurnArrived == 0 || run.ChurnPlaced == 0 {
		t.Fatalf("churn not reported: %+v", run)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	// GET on the POST-only submission route is rejected by the mux.
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestRemovedRoutesNotFound pins that the retired run store, live
// sessions, experiment runner and run-request submission are gone:
// each of their routes answers 404 rather than running anything.
func TestRemovedRoutesNotFound(t *testing.T) {
	ts := newTestServer(t)
	const body = `{"hosts":4,"vms":8,"fleet":"flat"}`
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/api/runs"},
		{http.MethodGet, "/api/runs"},
		{http.MethodGet, "/api/runs/1"},
		{http.MethodGet, "/api/runs/1/series"},
		{http.MethodGet, "/api/runs/1/events"},
		{http.MethodPost, "/api/sessions"},
		{http.MethodGet, "/api/sessions"},
		{http.MethodGet, "/api/sessions/1"},
		{http.MethodPost, "/api/sessions/1/advance"},
		{http.MethodPost, "/api/sessions/1/maintenance"},
		{http.MethodPost, "/api/sessions/1/vms"},
		{http.MethodDelete, "/api/sessions/1"},
		{http.MethodGet, "/api/sessions/1/events"},
		{http.MethodGet, "/api/experiments"},
		{http.MethodPost, "/api/experiments/t1"},
		{http.MethodPost, "/v1/runs"},
	} {
		t.Run(route.method+" "+route.path, func(t *testing.T) {
			req, err := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("status = %d, want 404", resp.StatusCode)
			}
		})
	}
}
