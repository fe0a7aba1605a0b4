// The async simulation service: the v1 HTTP surface over the job
// queue, the content-addressed result cache, streaming progress, and
// the Prometheus metrics endpoint. api.go holds the server's
// configuration, routes and the read-only /api routes; this file is
// everything that makes the daemon multi-tenant and production-shaped.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"agilepower"
	"agilepower/internal/apimetrics"
	"agilepower/internal/jobs"
	"agilepower/internal/rescache"
)

// RunResult is the canonical terminal payload of an async run: the
// run summary with no server-assigned fields (no job ID, no cached
// flag), so a cache hit's bytes are identical to the cold run that
// populated it. Whether a response came from the cache travels out of
// band (the X-Cache header and the job's cached flag).
type RunResult struct {
	Name     string  `json:"name"`
	Policy   string  `json:"policy"`
	Hosts    int     `json:"hosts"`
	VMs      int     `json:"vms"`
	HorizonH float64 `json:"horizonHours"`

	EnergyKWh         float64 `json:"energyKWh"`
	MeanPowerW        float64 `json:"meanPowerW"`
	PeakPowerW        float64 `json:"peakPowerW"`
	Satisfaction      float64 `json:"satisfaction"`
	ViolationFraction float64 `json:"violationFraction"`
	Migrations        int     `json:"migrations"`
	Sleeps            int     `json:"sleeps"`
	Wakes             int     `json:"wakes"`
	OracleKWh         float64 `json:"oracleKWh,omitempty"`

	ChurnArrived     int     `json:"churnArrived,omitempty"`
	ChurnPlaced      int     `json:"churnPlaced,omitempty"`
	ProvisionP95Secs float64 `json:"provisionP95Secs,omitempty"`

	SuspendFailures   int `json:"suspendFailures,omitempty"`
	WakeFailures      int `json:"wakeFailures,omitempty"`
	Crashes           int `json:"crashes,omitempty"`
	AssertionFailures int `json:"assertionFailures,omitempty"`
}

// ProgressEvent is one streamed progress sample (an SSE "progress"
// event), the wire form of agilepower.Progress.
type ProgressEvent struct {
	AtHours        float64 `json:"atHours"`
	PowerW         float64 `json:"powerW"`
	DemandCores    float64 `json:"demandCores"`
	DeliveredCores float64 `json:"deliveredCores"`
	ActiveHosts    int     `json:"activeHosts"`
	StrandedVMs    int     `json:"strandedVMs,omitempty"`
	PendingVMs     int     `json:"pendingVMs,omitempty"`
}

// SubmitResponse acknowledges an async submission (202).
type SubmitResponse struct {
	Job       jobs.Status `json:"job"`
	StatusURL string      `json:"statusUrl"`
	ResultURL string      `json:"resultUrl"`
	StreamURL string      `json:"streamUrl"`
}

// runPayload is the internal job payload: the scenario to execute and
// its result-cache key.
type runPayload struct {
	key string
	sc  agilepower.Scenario
}

// instruments is the server's direct-write metric set (callback
// instruments read the queue and cache at scrape time and need no
// fields here).
type instruments struct {
	start   time.Time
	runWall *apimetrics.Histogram
	waitReq *apimetrics.Histogram
}

// registerMetrics wires the /metrics instruments to the queue, the
// cache, and the executor.
func (s *Server) registerMetrics() {
	m := s.metrics
	s.im.start = time.Now()
	m.Gauge("agilepower_jobs_queued", "Jobs waiting in the queue.", func() float64 {
		queued, _ := s.queue.Depth()
		return float64(queued)
	})
	m.Gauge("agilepower_jobs_running", "Jobs currently executing.", func() float64 {
		_, running := s.queue.Depth()
		return float64(running)
	})
	m.CounterFunc("agilepower_jobs_submitted_total", "Jobs accepted for execution.", func() uint64 {
		return s.queue.Counters().Submitted
	})
	m.CounterFunc("agilepower_jobs_completed_total", "Jobs that reached done (including cache hits).", func() uint64 {
		return s.queue.Counters().Completed
	})
	m.CounterFunc("agilepower_jobs_failed_total", "Jobs that failed.", func() uint64 {
		return s.queue.Counters().Failed
	})
	m.CounterFunc("agilepower_jobs_cancelled_total", "Jobs cancelled before or during execution.", func() uint64 {
		return s.queue.Counters().Cancelled
	})
	m.CounterFunc("agilepower_jobs_rejected_total", "Submissions rejected by backpressure or draining.", func() uint64 {
		return s.queue.Counters().Rejected
	})
	m.Gauge("agilepower_runs_per_second", "Mean completed runs per second since start.", func() float64 {
		secs := time.Since(s.im.start).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(s.queue.Counters().Completed) / secs
	})
	m.CounterFunc("agilepower_cache_hits_total", "Result-cache hits.", func() uint64 {
		return s.cache.Stats().Hits
	})
	m.CounterFunc("agilepower_cache_misses_total", "Result-cache misses.", func() uint64 {
		return s.cache.Stats().Misses
	})
	m.CounterFunc("agilepower_cache_evictions_total", "Result-cache LRU evictions.", func() uint64 {
		return s.cache.Stats().Evictions
	})
	m.Gauge("agilepower_cache_hit_ratio", "Result-cache hits / lookups (0 before any lookup).", func() float64 {
		return s.cache.Stats().HitRate()
	})
	m.Gauge("agilepower_cache_bytes", "Result-cache resident bytes.", func() float64 {
		return float64(s.cache.Stats().Bytes)
	})
	m.Gauge("agilepower_cache_entries", "Result-cache resident entries.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})
	s.im.runWall = m.Histogram("agilepower_run_wall_seconds",
		"Wall-clock seconds per executed simulation (cache hits excluded).", nil)
	s.im.waitReq = m.Histogram("agilepower_wait_request_seconds",
		"Handler seconds for POST /v1/scenarios?wait=1, hits and misses together.", nil)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// runJob is the queue's Runner: execute the payload's scenario in
// chunks of simulated time (checking for cancellation between
// chunks), publish throttled progress to subscribers, encode the
// canonical result, and populate the result cache.
func (s *Server) runJob(ctx context.Context, j *jobs.Job) ([]byte, error) {
	p, ok := j.Payload().(*runPayload)
	if !ok {
		return nil, fmt.Errorf("api: job %s has no run payload", j.ID())
	}
	started := time.Now()
	se, err := p.sc.Start()
	if err != nil {
		return nil, err
	}
	// Progress: observers run on this goroutine (inside RunUntil), so
	// lastEmit needs no lock. Emit at most one event per ProgressEvery
	// of simulated time; the terminal result is delivered via Done and
	// cannot be missed.
	lastEmit := -s.cfg.ProgressEvery
	se.OnProgress(func(pr agilepower.Progress) {
		if pr.At-lastEmit < s.cfg.ProgressEvery {
			return
		}
		lastEmit = pr.At
		j.Publish(ProgressEvent{
			AtHours:        pr.At.Hours(),
			PowerW:         pr.PowerW,
			DemandCores:    pr.DemandCores,
			DeliveredCores: pr.DeliveredCores,
			ActiveHosts:    pr.ActiveHosts,
			StrandedVMs:    pr.StrandedVMs,
			PendingVMs:     pr.PendingVMs,
		})
	})
	horizon := p.sc.Horizon
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	for now := time.Duration(0); now < horizon; {
		if ctx.Err() != nil {
			se.Result() // retire the session's workers before abandoning it
			return nil, ctx.Err()
		}
		now += s.cfg.RunChunk
		if now > horizon {
			now = horizon
		}
		if err := se.RunUntil(now); err != nil {
			return nil, err
		}
	}
	res := se.Result()
	out := RunResult{
		Name:              p.sc.Name,
		Policy:            res.Policy,
		Hosts:             res.Hosts,
		VMs:               len(p.sc.VMs),
		HorizonH:          res.Horizon.Hours(),
		EnergyKWh:         res.EnergyKWh(),
		MeanPowerW:        res.MeanPowerW,
		PeakPowerW:        res.PeakPowerW,
		Satisfaction:      res.Satisfaction,
		ViolationFraction: res.ViolationFraction,
		Migrations:        res.Migrations.Completed,
		Sleeps:            res.Sleeps,
		Wakes:             res.Wakes,
		ChurnArrived:      res.Churn.Arrived,
		ChurnPlaced:       res.Churn.Placed,
		ProvisionP95Secs:  res.Churn.ProvisionP95.Seconds(),
		SuspendFailures:   res.SuspendFailures,
		WakeFailures:      res.WakeFailures,
		Crashes:           res.Crashes,
		AssertionFailures: res.AssertionFailures,
	}
	if oracle, err := res.OracleEnergy(); err == nil {
		out.OracleKWh = oracle.KWh()
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	s.cache.Put(p.key, body)
	s.im.runWall.Observe(time.Since(started).Seconds())
	return body, nil
}

// submitError maps queue submission errors to HTTP status codes.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrTenantFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func jobURLs(j *jobs.Job) SubmitResponse {
	base := "/v1/jobs/" + j.ID()
	return SubmitResponse{
		Job:       j.Snapshot(),
		StatusURL: base,
		ResultURL: base + "/result",
		StreamURL: base + "/stream",
	}
}

// writeAccepted emits the 202 acknowledgement for an async
// submission.
func writeAccepted(w http.ResponseWriter, j *jobs.Job) {
	resp := jobURLs(j)
	w.Header().Set("Location", resp.StatusURL)
	writeJSON(w, http.StatusAccepted, resp)
}

// writeResult emits a terminal run result with its cache disposition.
func writeResult(w http.ResponseWriter, body []byte, hit bool, jobID string) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if jobID != "" {
		w.Header().Set("X-Job-Id", jobID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// submit looks the key up in the result cache, enqueues the scenario
// on a miss, and with wait=1 blocks for the terminal result.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, tenant, key string, sc agilepower.Scenario) {
	began := time.Now()
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	if body, ok := s.cache.Get(key); ok {
		// Cache hit: no simulation, no queue wait — the job is born
		// terminal for bookkeeping and the bytes are served as stored
		// (identical to the cold response that populated them).
		j, err := s.queue.SubmitCompleted(tenant, nil, body)
		if err != nil {
			submitError(w, err)
			return
		}
		if wait {
			writeResult(w, body, true, j.ID())
			s.im.waitReq.Observe(time.Since(began).Seconds())
			return
		}
		writeAccepted(w, j)
		return
	}
	j, err := s.queue.Submit(tenant, &runPayload{key: key, sc: sc})
	if err != nil {
		submitError(w, err)
		return
	}
	if !wait {
		writeAccepted(w, j)
		return
	}
	select {
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result still
		// populates the cache for the retry).
		return
	case <-j.Done():
	}
	body, errMsg := j.Result()
	switch j.State() {
	case jobs.Done:
		writeResult(w, body, j.Cached(), j.ID())
		s.im.waitReq.Observe(time.Since(began).Seconds())
	case jobs.Cancelled:
		writeError(w, http.StatusConflict, "job %s cancelled", j.ID())
	default:
		writeError(w, http.StatusUnprocessableEntity, "run failed: %s", errMsg)
	}
}

// handleSubmitScenario is POST /v1/scenarios, the one way to run a
// simulation: submit a scenario file (the format ParseScenario reads
// and `scenario run` loads) as an async job. The tenant comes from the
// X-Tenant header or ?tenant= (the file format has no tenant field).
func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// The canonical bytes and admission counts come from the decoded
	// struct, not the client's formatting.
	f, err := agilepower.DecodeScenarioFile(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if hosts, ok := f.TotalHosts(s.cfg.MaxHosts); !ok || hosts == 0 {
		writeError(w, http.StatusBadRequest, "hosts must be in [1, %d]", s.cfg.MaxHosts)
		return
	}
	vms, ok := f.TotalVMs(s.cfg.MaxVMs)
	if !ok || vms == 0 {
		writeError(w, http.StatusBadRequest, "vms must be in [1, %d]", s.cfg.MaxVMs)
		return
	}
	sc, err := f.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// An omitted horizon runs the scenario default (24h), so that is
	// what the budget must see.
	horizon := sc.Horizon
	if horizon == 0 {
		horizon = 24 * time.Hour
	}
	if horizon < 0 || horizon > s.cfg.MaxHorizon {
		writeError(w, http.StatusBadRequest, "horizon must be in (0, %v]", s.cfg.MaxHorizon)
		return
	}
	// Churn adds VMs while the job runs, so its expected arrivals count
	// against the same budget. Floating point keeps a huge rate from
	// overflowing the product.
	if sc.Churn != nil && float64(vms)+sc.Churn.ArrivalsPerHour*horizon.Hours() > float64(s.cfg.MaxVMs) {
		writeError(w, http.StatusBadRequest, "vms plus expected churn arrivals must be at most %d", s.cfg.MaxVMs)
		return
	}
	canonical, err := f.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	s.submit(w, r, tenant, rescache.Key(agilepower.CodeVersion, canonical), sc)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	all := s.queue.Jobs(r.URL.Query().Get("tenant"))
	out := make([]jobs.Status, 0, len(all))
	for _, j := range all {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.queue.Cancel(id); {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "job %q not found", id)
	case errors.Is(err, jobs.ErrTerminal):
		writeError(w, http.StatusConflict, "job %q already terminal", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		j, _ := s.queue.Get(id)
		if j != nil {
			// A running job unwinds asynchronously; report its state as
			// of now.
			writeJSON(w, http.StatusOK, j.Snapshot())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	body, errMsg := j.Result()
	switch j.State() {
	case jobs.Done:
		writeResult(w, body, j.Cached(), j.ID())
	case jobs.Failed:
		writeError(w, http.StatusUnprocessableEntity, "run failed: %s", errMsg)
	case jobs.Cancelled:
		writeError(w, http.StatusConflict, "job %s cancelled", j.ID())
	default:
		writeError(w, http.StatusConflict, "job %s not finished (state %s)", j.ID(), j.State())
	}
}

// sseEvent writes one Server-Sent Event. data must be newline-free
// (json.Marshal output is).
func sseEvent(w io.Writer, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// handleJobStream is GET /v1/jobs/{id}/stream: a Server-Sent Events
// feed of the job — an initial "status" event, throttled "progress"
// events while it runs (lossy by design: a slow client misses
// samples, never the outcome), and a terminal "result" / "failed" /
// "cancelled" event, after which the stream closes.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancelSub := j.Subscribe()
	defer cancelSub()

	status, _ := json.Marshal(j.Snapshot())
	if sseEvent(w, "status", status) != nil {
		return
	}
	fl.Flush()

	terminal := func() {
		body, errMsg := j.Result()
		switch j.State() {
		case jobs.Done:
			_ = sseEvent(w, "result", body)
		case jobs.Cancelled:
			_ = sseEvent(w, "cancelled", []byte(`{"state":"cancelled"}`))
		default:
			msg, _ := json.Marshal(map[string]string{"state": "failed", "error": errMsg})
			_ = sseEvent(w, "failed", msg)
		}
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Flush progress already buffered before the terminal event.
			for {
				select {
				case ev := <-ch:
					data, _ := json.Marshal(ev)
					if sseEvent(w, "progress", data) != nil {
						return
					}
				default:
					terminal()
					return
				}
			}
		case ev := <-ch:
			data, _ := json.Marshal(ev)
			if sseEvent(w, "progress", data) != nil {
				return
			}
			fl.Flush()
		}
	}
}
