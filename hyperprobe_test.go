package agilepower

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestHyperFullHeapProbe builds the full-scale hyperscale fleet
// (100,000 hosts / 1,000,000 VMs), advances a couple of simulated
// minutes, and reports wall time and live heap per stage. Gated
// behind an env var: a manual probe for the "laptop-sized heap"
// claim, not a CI test — a full simulated day's wall time is
// dominated by the manager's per-migration re-planning (see ROADMAP
// item 1), not by the evaluation tick this probe exercises.
func TestHyperFullHeapProbe(t *testing.T) {
	if os.Getenv("HYPER_PROBE") == "" {
		t.Skip("set HYPER_PROBE=1 to run")
	}
	// Stream to stderr rather than t.Logf so progress is visible even
	// if a later stage is interrupted.
	logHeap := func(stage string, since time.Time) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		fmt.Fprintf(os.Stderr, "probe: %s: %v wall; live heap %d MiB, sys %d MiB\n",
			stage, time.Since(since).Round(time.Millisecond), m.HeapAlloc>>20, m.Sys>>20)
	}
	sc := Scenario{
		Name: "hyper-probe", Hosts: 100000, HostCores: 16, HostMemoryGB: 256,
		Horizon:      24 * time.Hour,
		Manager:      ManagerConfig{Policy: DPMS3},
		VMs:          HyperscaleFleet(1000000, 1),
		TelemetryCap: 4096,
	}
	start := time.Now()
	se, err := sc.Start()
	if err != nil {
		t.Fatal(err)
	}
	logHeap("Start (build + initial evaluation + first control step)", start)
	step := time.Now()
	if err := se.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	logHeap("RunUntil(2m)", step)
}
