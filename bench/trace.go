package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanRecord is one timed interval around a call into a layer. Spans of
// one repetition share Run; Parent indexes the enclosing span (-1 for a
// repetition's top-level spans).
type spanRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
}

// tracer keeps a traced phase's spans in memory until it is written
// out. A nil *tracer records nothing, so untraced code paths pay one
// nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span (or on nothing, when untraced).
type span struct {
	tr *tracer
	id int
}

// root opens a top-level span of the current repetition.
func (t *tracer) root(name string) span { return span{tr: t, id: -1}.child(name) }

// child opens a span nested under s. Safe for concurrent use.
func (s span) child(name string) span {
	if s.tr == nil {
		return s
	}
	t := s.tr
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{Name: name, StartNS: now, EndNS: -1, Parent: s.id, Run: t.run})
	return span{tr: t, id: len(t.spans) - 1}
}

// end closes s.
func (s span) end() {
	if s.tr == nil || s.id < 0 {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id].EndNS = now
	s.tr.mu.Unlock()
}

// seconds sums the closed spans' durations by name.
func (t *tracer) seconds() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.EndNS >= 0 {
			out[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers are the exclusive layers CPU samples are charged to. They
// partition the samples; cpu.errorf_s overlaps them and cpu.total_s is
// their sum.
var cpuLayers = []string{
	"dispatch", "cluster_eval", "manager_completion", "manager_step", "manager_forecast",
	"migrate_ctrl", "script", "world", "report", "service", "gc", "other",
}

// pkgLayer maps a package to its layer. internal/core is missing on
// purpose: it is split by entry point in entryLayer.
var pkgLayer = map[string]string{
	"agilepower/internal/sim":         "dispatch",
	"agilepower/internal/cluster":     "cluster_eval",
	"agilepower/internal/host":        "cluster_eval",
	"agilepower/internal/power":       "cluster_eval",
	"agilepower/internal/vm":          "cluster_eval",
	"agilepower/internal/workload":    "cluster_eval",
	"agilepower/internal/telemetry":   "cluster_eval",
	"agilepower/internal/events":      "cluster_eval",
	"agilepower/internal/migrate":     "migrate_ctrl",
	"agilepower/internal/ctrlplane":   "migrate_ctrl",
	"agilepower/internal/faults":      "migrate_ctrl",
	"agilepower/internal/script":      "script",
	"agilepower/internal/chaos":       "script",
	"agilepower/internal/report":      "report",
	"agilepower/internal/experiments": "report",
	"agilepower/internal/parallel":    "report",
	"agilepower/internal/api":         "service",
	"agilepower/internal/jobs":        "service",
	"agilepower/internal/rescache":    "service",
	"agilepower/internal/apimetrics":  "service",
}

// gcFrames mark a sample as garbage-collector work wherever it occurs:
// background marking and sweeping, and mark assists taken by
// allocating code.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// framePkg returns the package path of a pprof function name such as
// "agilepower/internal/core.(*Manager).step".
func framePkg(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// entryLayer returns the layer a frame opens when it is an entry point
// that owns everything it calls: world building (a fleet generator,
// Prototype, Fork or Start), and the manager's three entry points — the
// drain/rebalance replanning run on every migration completion, the
// periodic control step, and the per-evaluation wake check with its
// forecast upkeep. Cluster and trace work done for the manager is the
// manager's cost.
func entryLayer(f string) string {
	switch f {
	case "agilepower.Scenario.Prototype", "agilepower.(*Prototype).Fork", "agilepower.Scenario.Start":
		return "world"
	}
	switch pkg := framePkg(f); {
	case pkg == "agilepower" && strings.HasSuffix(f, "Fleet"):
		return "world"
	case pkg != "agilepower/internal/core":
		return ""
	case strings.HasSuffix(f, ".continueMoves"):
		return "manager_completion"
	case strings.HasSuffix(f, ".step"):
		return "manager_step"
	case strings.HasSuffix(f, ".wakeCheck"):
		return "manager_forecast"
	}
	return ""
}

// classify charges one sample's stack (leaf first) to a layer: GC work
// anywhere in the stack wins; then the outermost entry point; otherwise
// the nearest agilepower frame's package decides (manager callbacks
// under no entry point count as control-step work); a stack with no
// agilepower frame is service work if it runs in net/http, and other
// (runtime, harness) if not. errorf reports whether the sample
// formatted an error.
func classify(frames []string) (layer string, errorf bool) {
	gc := false
	for _, f := range frames {
		errorf = errorf || f == "fmt.Errorf"
		for _, g := range gcFrames {
			gc = gc || f == g
		}
	}
	if gc {
		return "gc", errorf
	}
	for i := len(frames) - 1; i >= 0; i-- {
		if l := entryLayer(frames[i]); l != "" {
			return l, errorf
		}
	}
	for _, f := range frames {
		pkg := framePkg(f)
		switch {
		case pkg == "agilepower":
			if strings.Contains(f, "assertEngine") || strings.Contains(f, "applyEvent") || strings.Contains(f, "compileScript") {
				return "script", errorf
			}
			return "world", errorf
		case pkg == "agilepower/internal/core":
			return "manager_step", errorf
		case strings.HasPrefix(pkg, "agilepower/"):
			if l, ok := pkgLayer[pkg]; ok {
				return l, errorf
			}
			return "other", errorf
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "service", errorf
		}
	}
	return "other", errorf
}

// attribute reads `go tool pprof -traces` output and returns CPU seconds
// per layer (cpuLayers), plus "errorf" and "total".
func attribute(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	var frames []string
	var value float64
	flush := func() {
		if len(frames) == 0 {
			return
		}
		layer, errorf := classify(frames)
		out[layer] += value
		out["total"] += value
		if errorf {
			out["errorf"] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header: File, Type, Duration, ...
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 && len(fields) >= 2 {
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	flush()
	return out, sc.Err()
}

// parseDuration reads a pprof sample value such as "10ms" or "1.20s"
// as seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// cpuProfile records a CPU profile of the traced phase into dir.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir, workload string) (*cpuProfile, error) {
	path := filepath.Join(dir, workload+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends profiling and charges the samples to layers with the
// toolchain's own reader, `go tool pprof -traces`.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.path)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return attribute(strings.NewReader(string(text)))
}
