package agilepower

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/sim"
)

// assertSameResult compares two runs the way the incremental-mode test
// does — every headline metric, every action count, and the event log
// entry by entry — so a fork that drifts from a cold start by even one
// event fails with the exact divergence point.
func assertSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Energy != b.Energy {
		t.Fatalf("energy diverged: %v vs %v", a.Energy, b.Energy)
	}
	if a.Satisfaction != b.Satisfaction || a.ViolationFraction != b.ViolationFraction ||
		a.UnmetCoreHours != b.UnmetCoreHours {
		t.Fatalf("SLA diverged: (%v,%v,%v) vs (%v,%v,%v)",
			a.Satisfaction, a.ViolationFraction, a.UnmetCoreHours,
			b.Satisfaction, b.ViolationFraction, b.UnmetCoreHours)
	}
	if a.Migrations.Completed != b.Migrations.Completed ||
		a.Sleeps != b.Sleeps || a.Wakes != b.Wakes ||
		a.ResumeFailures != b.ResumeFailures ||
		a.SuspendFailures != b.SuspendFailures ||
		a.WakeFailures != b.WakeFailures ||
		a.Crashes != b.Crashes ||
		a.Manager.FreqChanges != b.Manager.FreqChanges {
		t.Fatalf("action counts diverged: %+v vs %+v", a.Manager, b.Manager)
	}
	if a.StrandedVMHours != b.StrandedVMHours {
		t.Fatalf("stranded hours diverged: %v vs %v", a.StrandedVMHours, b.StrandedVMHours)
	}
	if len(a.FaultCounters) != len(b.FaultCounters) {
		t.Fatalf("fault counters diverged: %v vs %v", a.FaultCounters, b.FaultCounters)
	}
	for k, v := range a.FaultCounters {
		if b.FaultCounters[k] != v {
			t.Fatalf("fault counter %s diverged: %d vs %d", k, v, b.FaultCounters[k])
		}
	}
	if a.Events.Len() != b.Events.Len() {
		t.Fatalf("event logs diverged: %d vs %d", a.Events.Len(), b.Events.Len())
	}
	bEvents := b.Events.All()
	for i, ea := range a.Events.All() {
		if ea != bEvents[i] {
			t.Fatalf("event %d diverged: %v vs %v", i, ea, bEvents[i])
		}
	}
}

// forkCases is the feature matrix the fork-identity tests run over:
// churn, fault injection, a lossy control plane, predictive wake, DVFS,
// heterogeneous fleets, a sharded evaluation tick — every subsystem
// whose RNG stream or event order a sloppy snapshot could perturb.
func forkCases() []struct {
	name string
	sc   Scenario
} {
	return []struct {
		name string
		sc   Scenario
	}{
		{"dpm-s3 mixed churn", Scenario{
			Hosts: 6, VMs: MixedFleet(24, 5), Horizon: 8 * time.Hour, Seed: 5,
			Manager: ManagerConfig{Policy: DPMS3},
			Churn:   &ChurnSpec{ArrivalsPerHour: 3, MeanLifetime: 2 * time.Hour},
		}},
		{"dpm-s5 predictive", Scenario{
			Hosts: 6, VMs: WorkdayFleet(18, 1, 5), Horizon: 12 * time.Hour, Seed: 5,
			Manager: ManagerConfig{Policy: DPMS5, PredictiveWake: true},
		}},
		{"faulted dvfs combo", func() Scenario {
			f := FaultPreset(0.2)
			return Scenario{
				Hosts: 6, VMs: DiurnalFleet(18, 5), Horizon: 8 * time.Hour, Seed: 5,
				Manager: ManagerConfig{Policy: Policy{
					Name: "combo", LoadBalance: true, Consolidate: true,
					PowerManage: true, SleepState: S3, DVFS: true,
				}},
				Faults: &f,
			}
		}()},
		{"lossy ctrlplane", func() Scenario {
			cp := CtrlPreset(50*time.Millisecond, 0.05)
			return Scenario{
				Hosts: 8, VMs: ReplicatedFleet(6, 3, 5), Horizon: 8 * time.Hour, Seed: 5,
				Manager:   ManagerConfig{Policy: DPMS3, PanicShortfall: 0.3},
				CtrlPlane: &cp,
			}
		}()},
		{"hetero resume-failures", func() Scenario {
			p := DefaultProfile()
			p.ResumeFailProb = 0.2
			return Scenario{
				HostClasses: []HostClass{{Count: 3, Cores: 32}, {Count: 4}},
				Profile:     p,
				VMs:         BatchFleet(16, 5),
				Horizon:     8 * time.Hour,
				Seed:        5,
				Manager:     ManagerConfig{Policy: DPMS3},
			}
		}()},
		{"sharded delta churn", Scenario{
			Hosts: 8, VMs: MixedFleet(32, 7), Horizon: 8 * time.Hour, Seed: 7,
			Shards: 2, TelemetryCap: 64,
			Manager: ManagerConfig{Policy: DPMS5},
			Churn:   &ChurnSpec{ArrivalsPerHour: 2, MeanLifetime: 3 * time.Hour},
		}},
	}
}

// TestForkMatchesColdStart is the tentpole's identity bar: a session
// forked from a prototype must produce exactly the Result and event log
// a cold Start of the same scenario does, across the full feature
// matrix.
func TestForkMatchesColdStart(t *testing.T) {
	for _, tc := range forkCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cold, err := tc.sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			proto, err := tc.sc.Prototype()
			if err != nil {
				t.Fatal(err)
			}
			forked, err := proto.Run(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, cold, forked)
		})
	}
}

// TestForkGridMatchesColdStart forks several distinct cells — different
// policies, seeds, fault and control-plane settings — from ONE
// prototype, interleaved, and checks each against its own cold run.
// This is the experiment-grid usage pattern: one world, many cells.
func TestForkGridMatchesColdStart(t *testing.T) {
	base := Scenario{
		Hosts: 6, VMs: MixedFleet(24, 5), Horizon: 8 * time.Hour, Seed: 5,
		Manager: ManagerConfig{Policy: NoPM},
	}
	proto, err := base.Prototype()
	if err != nil {
		t.Fatal(err)
	}
	faulted := FaultPreset(0.1)
	lossy := CtrlPreset(2*time.Second, 0.05)
	cells := []Scenario{
		base,
		func() Scenario { sc := base; sc.Manager.Policy = DPMS3; return sc }(),
		func() Scenario { sc := base; sc.Manager.Policy = DPMS5; sc.Seed = 11; return sc }(),
		func() Scenario { sc := base; sc.Manager.Policy = DPMS3; sc.Faults = &faulted; return sc }(),
		func() Scenario { sc := base; sc.Manager.Policy = DPMS5; sc.CtrlPlane = &lossy; return sc }(),
		func() Scenario {
			sc := base
			sc.Manager.Policy = DPMS3
			sc.Churn = &ChurnSpec{ArrivalsPerHour: 2, MeanLifetime: 2 * time.Hour}
			return sc
		}(),
	}
	for i, sc := range cells {
		sc := sc
		t.Run(fmt.Sprintf("cell-%d", i), func(t *testing.T) {
			cold, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			forked, err := proto.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, cold, forked)
		})
	}
}

// TestConcurrentForksMatchColdStart drives many forks of one prototype
// from concurrent goroutines — the parallel.Map usage inside
// RunPoliciesWorkers and RunReplicatedWorkers — and checks every run
// against a sequential cold baseline. Run under -race (make race), this
// is the proof that Fork only reads the prototype.
func TestConcurrentForksMatchColdStart(t *testing.T) {
	base := Scenario{
		Hosts: 6, VMs: MixedFleet(24, 5), Horizon: 6 * time.Hour, Seed: 5,
		Manager: ManagerConfig{Policy: DPMS3},
		Churn:   &ChurnSpec{ArrivalsPerHour: 2, MeanLifetime: 2 * time.Hour},
	}
	proto, err := base.Prototype()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	cold := make([]*Result, n)
	for i := 0; i < n; i++ {
		sc := base
		sc.Seed = uint64(i + 1)
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}
	forked := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := base
			sc.Seed = uint64(i + 1)
			forked[i], errs[i] = proto.Run(sc)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		assertSameResult(t, cold[i], forked[i])
	}
}

// TestForkRejectsWorldMismatch pins the compatibility contract: cell
// fields may vary per fork, but any world-defining field that differs
// from the prototype must be rejected by name, never run silently on
// the wrong fleet.
func TestForkRejectsWorldMismatch(t *testing.T) {
	base := Scenario{
		Hosts: 4, VMs: MixedFleet(8, 5), Horizon: 4 * time.Hour, Seed: 5,
		Manager: ManagerConfig{Policy: DPMS3},
	}
	proto, err := base.Prototype()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		field  string
		mutate func(sc Scenario) Scenario
	}{
		{"Hosts", func(sc Scenario) Scenario { sc.Hosts = 5; return sc }},
		{"HostCores", func(sc Scenario) Scenario { sc.HostCores = 32; return sc }},
		{"HostMemoryGB", func(sc Scenario) Scenario { sc.HostMemoryGB = 512; return sc }},
		{"Profile", func(sc Scenario) Scenario { sc.Profile = DefaultProfile(); return sc }},
		{"HostClasses", func(sc Scenario) Scenario {
			sc.HostClasses = []HostClass{{Count: 2, Cores: 32}, {Count: 2}}
			return sc
		}},
		{"Horizon", func(sc Scenario) Scenario { sc.Horizon = 6 * time.Hour; return sc }},
		{"EvalStep", func(sc Scenario) Scenario { sc.EvalStep = 30 * time.Second; return sc }},
		// An equal copy of the fleet is still a different fleet: cells
		// must share the prototype's VMs slice, not merely equal specs.
		{"VMs", func(sc Scenario) Scenario { sc.VMs = append([]VMSpec(nil), sc.VMs...); return sc }},
		{"Shards", func(sc Scenario) Scenario { sc.Shards = 2; return sc }},
		{"TelemetryCap", func(sc Scenario) Scenario { sc.TelemetryCap = 32; return sc }},
		{"Migration", func(sc Scenario) Scenario {
			m := DefaultMigrationModel()
			m.BandwidthGbps *= 2
			sc.Migration = &m
			return sc
		}},
	}
	for _, m := range mutations {
		t.Run(m.field, func(t *testing.T) {
			_, err := proto.Fork(m.mutate(base))
			if err == nil {
				t.Fatalf("fork with mismatched %s succeeded, want error", m.field)
			}
			if !strings.Contains(err.Error(), m.field) {
				t.Fatalf("mismatch error %q does not name field %s", err, m.field)
			}
		})
	}
	// The cell fields stay free: a different name, seed, policy, faults
	// and control plane must all fork fine.
	fc := FaultPreset(0.1)
	cp := CtrlPreset(time.Second, 0.1)
	cell := base
	cell.Name = "cell"
	cell.Seed = 99
	cell.Manager.Policy = DPMS5
	cell.Faults = &fc
	cell.CtrlPlane = &cp
	se, err := proto.Fork(cell)
	if err != nil {
		t.Fatalf("fork with cell-level overrides: %v", err)
	}
	se.Result()
}

// TestForkRequiresPristineCluster pins the cluster-level guard: a world
// that has started ticking cannot be the source of a fork.
func TestForkRequiresPristineCluster(t *testing.T) {
	sc := Scenario{
		Hosts: 4, VMs: MixedFleet(8, 5), Horizon: 4 * time.Hour, Seed: 5,
		Manager: ManagerConfig{Policy: DPMS3},
	}.withDefaults()
	eng := sim.NewEngine(sc.Seed)
	cl, _, _, err := buildWorld(eng, sc, resolvedProfile(sc))
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	if _, err := cl.Fork(sim.NewEngine(1)); err == nil {
		t.Fatal("fork of a started cluster succeeded, want error")
	}
}

// legacyPlaceInitial is the pre-screening placement loop, kept verbatim
// as the reference: try hosts round-robin and let the cluster's AddVM
// reject until one admits the VM — O(VMs × hosts) failed admissions in
// the worst case.
func legacyPlaceInitial(cl *cluster.Cluster, specs []VMSpec) error {
	hosts := cl.Hosts()
	n := len(hosts)
	for i, spec := range specs {
		cfg := vmConfig(spec)
		var lastErr error
		placed := false
		for try := 0; try < n; try++ {
			j := (i + try) % n
			if _, lastErr = cl.AddVM(cfg, hosts[j].ID()); lastErr == nil {
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("agilepower: placing vm %d (%s): %w", i, spec.Name, lastErr)
		}
	}
	return nil
}

// tightFleet builds a fleet that stresses every admission screen: VMs
// big enough to fill hosts (memory rejections on most probes), reserved
// cores near the host limit (CPU rejections), and anti-affinity groups
// (group rejections) — the sizes at which the old retry loop actually
// retried.
func tightFleet() []VMSpec {
	specs := make([]VMSpec, 0, 26)
	for i := 0; i < 10; i++ {
		specs = append(specs, VMSpec{
			Name: fmt.Sprintf("big-%d", i), VCPUs: 4, MemoryGB: 10,
			Trace: ConstantTrace(1),
		})
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, VMSpec{
			Name: fmt.Sprintf("resv-%d", i), VCPUs: 4, MemoryGB: 2,
			ReservedCores: 1.5, Trace: ConstantTrace(0.5),
		})
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, VMSpec{
			Name: fmt.Sprintf("rep-%d", i), VCPUs: 2, MemoryGB: 1,
			Group: fmt.Sprintf("svc-%d", i%4), Trace: ConstantTrace(0.25),
		})
	}
	return specs
}

// TestPlaceInitialMatchesLegacyRetry is the regression gate for the
// screened placement rewrite: on a memory-, CPU-, and group-constrained
// fleet — where the old loop demonstrably retried — the screened
// placeInitial must land every VM on exactly the host the legacy
// try-until-AddVM-succeeds chain chose.
func TestPlaceInitialMatchesLegacyRetry(t *testing.T) {
	build := func() *cluster.Cluster {
		cl, err := cluster.New(sim.NewEngine(1), cluster.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 4; h++ {
			if _, err := cl.AddHost(host.Config{Cores: 4, MemoryGB: 32}); err != nil {
				t.Fatal(err)
			}
		}
		return cl
	}
	specs := tightFleet()

	legacy := build()
	if err := legacyPlaceInitial(legacy, specs); err != nil {
		t.Fatal(err)
	}
	screened := build()
	if err := placeInitial(screened, specs); err != nil {
		t.Fatal(err)
	}

	lh, sh := legacy.Hosts(), screened.Hosts()
	retried := false
	for j := range lh {
		lv, sv := lh[j].VMs(), sh[j].VMs()
		if len(lv) != len(sv) {
			t.Fatalf("host %d: legacy holds %d VMs, screened holds %d", j+1, len(lv), len(sv))
		}
		for k := range lv {
			if lv[k] != sv[k] {
				t.Fatalf("host %d slot %d: legacy placed vm %d, screened placed vm %d",
					j+1, k, lv[k], sv[k])
			}
		}
		if len(lv) > 0 && lh[j].MemFreeGB() < 10 {
			retried = true // at least one host is too full for the big VMs
		}
	}
	if !retried {
		t.Fatal("fixture too loose: no host filled enough to force the retry path")
	}

	// Overflow must fail with the identical error text too.
	over := append(append([]VMSpec(nil), specs...),
		VMSpec{Name: "too-big", VCPUs: 4, MemoryGB: 33, Trace: ConstantTrace(1)})
	el := legacyPlaceInitial(build(), over)
	es := placeInitial(build(), over)
	if el == nil || es == nil {
		t.Fatalf("overflow fleet placed: legacy=%v screened=%v", el, es)
	}
	if el.Error() != es.Error() {
		t.Fatalf("overflow errors diverged:\nlegacy:   %v\nscreened: %v", el, es)
	}
}
