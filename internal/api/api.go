// Package api exposes the simulator and manager over HTTP/JSON: the
// multi-tenant simulation service. A scenario file (the format
// ParseScenario reads) posted to /v1/scenarios is the one way to run
// a simulation: it becomes a job on a bounded async queue (202 + job
// ID, per-tenant fair scheduling, queue-depth backpressure), executed
// by a worker pool and served from a content-addressed result cache
// whenever the same (scenario, seed, code version) was run before —
// determinism makes a cache hit byte-identical to a fresh run.
// Progress streams over SSE, and operational state exports in
// Prometheus text format on /metrics. The read-only /api/policies and
// /api/profile routes describe the built-in policies and calibration.
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"agilepower"
	"agilepower/internal/apimetrics"
	"agilepower/internal/jobs"
	"agilepower/internal/rescache"
)

// Config tunes the service. The zero value gets production defaults.
// cmd/agilepmd sets every field but MaxHorizon, RunChunk and
// ProgressEvery from a flag; those three keep their defaults there.
type Config struct {
	// Workers is the job-executor pool size (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued jobs across all tenants (<= 0 means
	// 4096); submissions past it are rejected with 429.
	QueueDepth int
	// TenantQueueDepth bounds one tenant's queued jobs (<= 0 means
	// QueueDepth).
	TenantQueueDepth int
	// CacheBytes is the result cache's byte budget (<= 0 means 256
	// MiB). The cache is content-addressed by (scenario, seed, code
	// version); a hit skips the simulator entirely.
	CacheBytes int64
	// MaxHosts, MaxVMs, and MaxHorizon are the admission budget: a
	// request above any of them is rejected with 400. MaxVMs counts
	// the fleets' VMs plus the churn arrivals expected over the
	// horizon. The defaults admit delta-mode hyperscale runs (128k
	// hosts / 1M VMs / 30 days); operators shrink them on small boxes.
	MaxHosts   int
	MaxVMs     int
	MaxHorizon time.Duration
	// RunChunk is how much simulated time a worker advances between
	// cancellation checks (<= 0 means 1h). Smaller is snappier
	// cancellation; results are identical for any value.
	RunChunk time.Duration
	// ProgressEvery throttles streamed progress events to at most one
	// per this much simulated time (<= 0 means 15m).
	ProgressEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxHosts <= 0 {
		c.MaxHosts = 131072
	}
	if c.MaxVMs <= 0 {
		c.MaxVMs = 1 << 20
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = 30 * 24 * time.Hour
	}
	if c.RunChunk <= 0 {
		c.RunChunk = time.Hour
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 15 * time.Minute
	}
	return c
}

// Server is the HTTP control plane. The zero value is not usable; use
// NewServer.
type Server struct {
	cfg Config

	queue   *jobs.Queue
	cache   *rescache.Cache
	metrics *apimetrics.Registry
	im      instruments
}

// NewServer returns a control plane with started job workers. Call
// Close (or Drain) on shutdown.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   rescache.New(cfg.CacheBytes),
		metrics: apimetrics.NewRegistry(),
	}
	s.queue = jobs.New(jobs.Config{
		Workers:            cfg.Workers,
		MaxQueued:          cfg.QueueDepth,
		MaxQueuedPerTenant: cfg.TenantQueueDepth,
	}, s.runJob)
	s.registerMetrics()
	s.queue.Start()
	return s
}

// Queue exposes the job queue (for shutdown draining and tests).
func (s *Server) Queue() *jobs.Queue { return s.queue }

// Drain stops accepting jobs, cancels queued ones, and waits for
// running jobs until ctx expires (then force-cancels them).
func (s *Server) Drain(ctx context.Context) error { return s.queue.Drain(ctx) }

// Close force-drains immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.queue.Drain(ctx)
	return nil
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/policies", s.handlePolicies)
	mux.HandleFunc("GET /api/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmitScenario)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type policyInfo struct {
		Name        string `json:"name"`
		LoadBalance bool   `json:"loadBalance"`
		Consolidate bool   `json:"consolidate"`
		PowerManage bool   `json:"powerManage"`
		SleepState  string `json:"sleepState,omitempty"`
	}
	var out []policyInfo
	for _, p := range agilepower.Policies() {
		info := policyInfo{
			Name:        p.Name,
			LoadBalance: p.LoadBalance,
			Consolidate: p.Consolidate,
			PowerManage: p.PowerManage,
		}
		if p.PowerManage {
			info.SleepState = p.SleepState.String()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p := agilepower.DefaultProfile()
	type stateInfo struct {
		PowerW     float64 `json:"powerW"`
		EntrySecs  float64 `json:"entrySecs"`
		ExitSecs   float64 `json:"exitSecs"`
		BreakEvenS float64 `json:"breakEvenSecs"`
	}
	out := map[string]any{
		"name":       p.Name,
		"peakPowerW": float64(p.PeakPower),
		"idlePowerW": float64(p.IdlePower),
		"deepIdleW":  float64(p.DeepIdlePower),
	}
	states := map[string]stateInfo{}
	for st, spec := range p.Sleep {
		be, _ := p.BreakEven(st)
		states[st.String()] = stateInfo{
			PowerW:     float64(spec.Power),
			EntrySecs:  spec.EntryLatency.Seconds(),
			ExitSecs:   spec.ExitLatency.Seconds(),
			BreakEvenS: be.Seconds(),
		}
	}
	out["sleepStates"] = states
	writeJSON(w, http.StatusOK, out)
}
