package agilepower

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"agilepower/internal/cluster"
)

// accountingError checks the run's bookkeeping identities against one
// evaluation tick's progress record p, taken while the cluster holds
// the state the tick saw:
//   - the fleet is never delivered more CPU than it demands;
//   - VMs are conserved: every VM ever created is live or departed, and
//     every live VM is resident on exactly one host or pending;
//   - the tick's stranded count is the residents of unavailable hosts,
//     and its pending count the cluster's;
//   - the cluster's structural invariants hold.
func accountingError(cl *cluster.Cluster, p Progress) error {
	if p.DeliveredCores > p.DemandCores {
		return fmt.Errorf("at %v: delivered %v cores, demand %v", p.At, p.DeliveredCores, p.DemandCores)
	}
	live := len(cl.VMs())
	if created := int(cl.MaxVMID()); created != live+cl.Departed() {
		return fmt.Errorf("at %v: %d VMs created, %d live + %d departed", p.At, created, live, cl.Departed())
	}
	resident, stranded := 0, 0
	for _, h := range cl.Hosts() {
		resident += h.NumVMs()
		if !h.Available() {
			stranded += h.NumVMs()
		}
	}
	if live != resident+cl.PendingCount() {
		return fmt.Errorf("at %v: %d live VMs, %d resident + %d pending", p.At, live, resident, cl.PendingCount())
	}
	if p.StrandedVMs != stranded {
		return fmt.Errorf("at %v: tick counts %d stranded VMs, unavailable hosts hold %d", p.At, p.StrandedVMs, stranded)
	}
	if p.PendingVMs != cl.PendingCount() {
		return fmt.Errorf("at %v: tick counts %d pending VMs, the cluster %d", p.At, p.PendingVMs, cl.PendingCount())
	}
	if err := cl.CheckInvariants(); err != nil {
		return fmt.Errorf("at %v: %w", p.At, err)
	}
	return nil
}

// runKeepingAccounting runs se to horizon with accountingError checked
// at every tick, and fails the test at the first violation.
func runKeepingAccounting(t *testing.T, se *Session, horizon time.Duration) {
	t.Helper()
	ticks := 0
	var first error
	se.OnProgress(func(p Progress) {
		ticks++
		if first == nil {
			first = accountingError(se.cl, p)
		}
	})
	if err := se.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	se.Result()
	if first != nil {
		t.Fatal(first)
	}
	if ticks == 0 {
		t.Fatal("no tick observed")
	}
}

// TestScenarioLibraryKeepsAccounting runs every scenarios/ file under
// every policy, as `scenario run -policy all` does, and checks the
// accounting identities at every tick: the library's crashes, outages,
// surges, maintenance and lossy control planes must never lose a VM,
// strand one the tick does not count, or deliver more than demand.
func TestScenarioLibraryKeepsAccounting(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		for _, p := range Policies() {
			t.Run(name+"/"+p.Name, func(t *testing.T) {
				sc := sc
				sc.Manager.Policy = p
				se, err := sc.Start()
				if err != nil {
					t.Fatal(err)
				}
				runKeepingAccounting(t, se, sc.withDefaults().Horizon)
			})
		}
	}
}

// TestForkedRunsKeepAccounting checks the accounting identities at
// every tick of the fork-identity feature matrix, each run forked from
// its prototype: churn (arrivals and departures), faults, a lossy
// control plane, predictive wakes, DVFS and a heterogeneous fleet,
// which the scenario library does not all reach.
func TestForkedRunsKeepAccounting(t *testing.T) {
	for _, tc := range forkCases() {
		t.Run(tc.name, func(t *testing.T) {
			proto, err := tc.sc.Prototype()
			if err != nil {
				t.Fatal(err)
			}
			se, err := proto.Fork(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			runKeepingAccounting(t, se, tc.sc.Horizon)
		})
	}
}

// TestSessionRunsOnCallerGoroutine pins "one simulation, one
// goroutine": starting, running and finishing a 1,024-host session
// starts no goroutine, so its whole evaluation runs on the caller's.
func TestSessionRunsOnCallerGoroutine(t *testing.T) {
	sc := Scenario{
		Hosts: 1024, VMs: MixedFleet(4096, 3), Horizon: time.Hour, Seed: 3,
		Manager: ManagerConfig{Policy: DPMS3},
	}
	before := runtime.NumGoroutine()
	same := func(stage string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("after %s: %d goroutines, %d before Start", stage, n, before)
		}
	}
	se, err := sc.Start()
	if err != nil {
		t.Fatal(err)
	}
	same("Start")
	if err := se.RunUntil(sc.Horizon); err != nil {
		t.Fatal(err)
	}
	same("RunUntil")
	se.Result()
	same("Result")
}
