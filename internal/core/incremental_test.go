package core

import (
	"fmt"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// The incremental planner must be indistinguishable from the full-scan
// planner: same forecasts, same census, same packing, same actions,
// bit for bit, under arbitrary churn. The full-scan planner survives
// only as this oracle, reached through newManager. These tests drive
// paired worlds — one manager per planner, identical in every other
// respect — through scripted adds, removes, crashes, maintenance,
// injected transition faults (driving quarantines), and optionally a
// lossy control plane (driving suspect/dead liveness), predictive
// wake, a DVFS policy, a mixed 32/16-core fleet, heavy wake failures,
// the static or nopm-drm policy (whose invocations mostly read no
// forecast) or demand surges, comparing the planning state at every
// checkpoint.

// parityEvent is one scripted churn action, applied identically to
// both worlds.
type parityEvent struct {
	at    sim.Time
	kind  string // "add", "remove", "crash", "maint-in", "maint-out"
	host  host.ID
	vm    vm.ID
	trace int // index into the shared trace pool (kind "add")
}

// parityScript generates a deterministic churn script from a seed. The
// script — not the worlds — owns the randomness, so both sides see the
// exact same sequence.
func parityScript(seed uint64, hosts int, vms int, horizon sim.Time) []parityEvent {
	rng := sim.NewRNG(seed)
	var evs []parityEvent
	at := func() sim.Time { return sim.Time(rng.Range(0.1, 0.9) * float64(horizon)) }
	for i := 0; i < 6; i++ {
		evs = append(evs, parityEvent{at: at(), kind: "add", trace: rng.Intn(8)})
	}
	for i := 0; i < 4; i++ {
		evs = append(evs, parityEvent{at: at(), kind: "remove", vm: vm.ID(rng.Intn(vms) + 1)})
	}
	for i := 0; i < 2; i++ {
		evs = append(evs, parityEvent{at: at(), kind: "crash", host: host.ID(rng.Intn(hosts) + 1)})
	}
	h := host.ID(rng.Intn(hosts) + 1)
	evs = append(evs, parityEvent{at: horizon / 4, kind: "maint-in", host: h})
	evs = append(evs, parityEvent{at: horizon / 2, kind: "maint-out", host: h})
	return evs
}

// parityWorld is one side of the paired simulation.
type parityWorld struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	m   *Manager
}

// parityVariant selects the feature axes a paired world exercises on
// top of the base churn and fault script. The zero value is the base
// world: 16 identical hosts, DPM-S3, reactive forecasts, a reliable
// control plane and two injected wake failures.
type parityVariant struct {
	plane      bool    // lossy, delayed control plane
	predictive bool    // PredictiveWake: the diurnal model, eager forecasts
	dvfs       bool    // a consolidating, load-balancing DVFS policy
	hetero     bool    // every other host has 32 cores and 128 GB
	wakeFails  int     // injected wake failures (0 selects 2)
	resumeFail float64 // S3 resume-failure probability of every host
	s5         bool    // DPM-S5: park in soft-off, with its slow wakes
	panicAt    float64 // PanicShortfall: the emergency wake-all brake
	static     bool    // the static policy: reads only to place or drain
	nopm       bool    // nopm-drm: only its control step reads
	noise      float64 // NoiseFrac of the diurnal traces (see parityTraces)
	surge      bool    // every VM's demand rescaled four times (surgeSchedule)
}

// surgeSchedule rescales every VM's demand up, back, down and back.
// Every rescale but the second falls less than one forecast window
// before an hourly checkpoint, whose read must then catch a VM up
// across the rescale; the second lands after the invocations at its
// instant and is followed by a control step at the same instant, which
// observes the rescaled demand there.
func surgeSchedule(eng *sim.Engine, cl *cluster.Cluster, m *Manager) {
	for _, s := range []struct {
		at     time.Duration
		factor float64
	}{{110 * time.Minute, 1.6}, {200 * time.Minute, 1}, {290 * time.Minute, 0.5}, {355 * time.Minute, 1}} {
		s := s
		if s.at%(5*time.Minute) != 0 {
			eng.ScheduleFunc(sim.Time(s.at), func() { cl.ScaleDemandPrefix("", s.factor) })
			continue
		}
		// Scheduled after the ticks at s.at, so it fires after them.
		eng.ScheduleFunc(sim.Time(s.at-30*time.Second), func() {
			eng.AfterFunc(30*time.Second, func() {
				cl.ScaleDemandPrefix("", s.factor)
				m.step()
			})
		})
	}
}

// parityTraces builds the shared trace pool both worlds draw from:
// diurnal and constant demand, alternating. Noise on the diurnal
// traces puts a window's peak between two invocations, where only a
// catch-up that replays every invocation in the window finds it; a
// smooth curve peaks at a window's edge.
func parityTraces(seed uint64, noise float64) []*workload.Trace {
	trng := sim.NewRNG(seed)
	traces := make([]*workload.Trace, 8)
	for i := range traces {
		if i%2 == 0 {
			traces[i] = workload.Diurnal(trng.Fork(), workload.DiurnalSpec{
				BaseCores: 0.4, PeakCores: 2.5, NoiseFrac: noise,
			})
		} else {
			traces[i] = workload.Constant(trng.Range(0.5, 2))
		}
	}
	return traces
}

// buildParityWorld constructs one world: identical fleet, workloads,
// faults, and script on both sides; only the planner differs. The
// incremental manager also holds its planning rows to the whole-fleet
// pass at every use (CheckPlanningRowsForAll).
func buildParityWorld(t *testing.T, incremental bool, traces []*workload.Trace,
	script []parityEvent, v parityVariant) *parityWorld {
	t.Helper()
	const nHosts, nVMs = 16, 64
	eng := sim.NewEngine(7)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profile := power.DefaultProfile()
	profile.ResumeFailProb = v.resumeFail
	for i := 0; i < nHosts; i++ {
		hc := host.Config{Cores: 16, MemoryGB: 64, Profile: profile}
		if v.hetero && i%2 == 0 {
			hc.Cores, hc.MemoryGB = 32, 128
		}
		if _, err := cl.AddHost(hc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nVMs; i++ {
		cfg := vm.Config{VCPUs: 4, MemoryGB: 4, Trace: traces[i%len(traces)]}
		if _, err := cl.AddVM(cfg, host.ID(i%nHosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	// A few injected transition failures with a tight retry budget so
	// the script also exercises retries and quarantines.
	wakeFails := v.wakeFails
	if wakeFails == 0 {
		wakeFails = 2
	}
	cl.InjectFaults(&scriptFaults{sleepFails: 4, wakeFails: wakeFails, migFails: 3},
		&scriptFaults{migFails: 3})
	cfg := Config{
		Policy:               DPMS3,
		Period:               5 * time.Minute,
		MaxTransitionRetries: 1,
		PredictiveWake:       v.predictive,
		PanicShortfall:       v.panicAt,
	}
	if v.s5 {
		cfg.Policy = DPMS5
	}
	if v.static {
		cfg.Policy = Static
	}
	if v.nopm {
		cfg.Policy = NoPM
	}
	if v.dvfs {
		cfg.Policy = Policy{
			Name: "dvfs-combo", LoadBalance: true, Consolidate: true,
			PowerManage: true, SleepState: power.S3, DVFS: true,
		}
	}
	restore := CheckPlanningRowsForAll()
	m, err := newManager(cl, cfg, incremental)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var cp *ctrlplane.Plane
	if v.plane {
		cp, err = ctrlplane.New(eng, cl, ctrlplane.Config{
			CmdDelay: 40 * time.Millisecond, CmdJitter: 20 * time.Millisecond,
			CmdLossProb: 0.05,
		}, m.Counters())
		if err != nil {
			t.Fatal(err)
		}
		m.AttachControlPlane(cp)
	}
	for _, ev := range script {
		ev := ev
		eng.ScheduleFunc(ev.at, func() {
			switch ev.kind {
			case "add":
				cl.AddPendingVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: traces[ev.trace]})
			case "remove":
				cl.RemoveVM(ev.vm) // may fail (migrating/gone) — identically on both sides
			case "crash":
				cl.CrashHost(ev.host, 30*time.Minute)
			case "maint-in":
				m.EnterMaintenance(ev.host)
			case "maint-out":
				m.ExitMaintenance(ev.host)
			}
		})
	}
	if v.surge {
		surgeSchedule(eng, cl, m)
	}
	cl.Start()
	m.Start()
	if cp != nil {
		cp.Start()
	}
	return &parityWorld{eng: eng, cl: cl, m: m}
}

func compareHosts(t *testing.T, what string, a, b []*host.Host) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length diverged: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("%s[%d] diverged: host %d vs %d", what, i, a[i].ID(), b[i].ID())
		}
	}
}

// comparePlanning asserts every planning intermediate and output is
// bitwise identical across the two worlds: forecasts, the predictive
// wake's demand estimate, census classes, the sorted packing plan,
// load vectors, and the action counters.
func comparePlanning(t *testing.T, a, b *parityWorld) {
	t.Helper()
	if a.m.stats != b.m.stats {
		t.Fatalf("stats diverged:\n  incremental %+v\n  full-scan   %+v", a.m.stats, b.m.stats)
	}
	a.m.noteInvocation()
	b.m.noteInvocation()
	fa, fb := a.m.forecasts(), b.m.forecasts()
	va, vb := a.cl.VMs(), b.cl.VMs()
	if len(va) != len(vb) {
		t.Fatalf("live VM count diverged: %d vs %d", len(va), len(vb))
	}
	// Only live VMs' slots are compared: a departed VM's slot is never
	// read, and when the upkeep waits for a read it holds the value of
	// the VM's last read rather than its last invocation.
	for k, v := range va {
		if vb[k].ID() != v.ID() {
			t.Fatalf("live VM %d diverged: vm %d vs %d", k, v.ID(), vb[k].ID())
		}
		if i := v.ID() - 1; fa[i] != fb[i] {
			t.Fatalf("forecast for vm %d diverged: %v vs %v", v.ID(), fa[i], fb[i])
		}
	}
	if ta, tb := a.m.totalForecast(fa), b.m.totalForecast(fb); ta != tb {
		t.Fatalf("total forecast diverged: %v vs %v", ta, tb)
	}
	if pa, pb := a.m.predictedDemand(), b.m.predictedDemand(); pa != pb {
		t.Fatalf("predicted demand diverged: %v vs %v", pa, pb)
	}
	ca, cb := a.m.takeCensus(), b.m.takeCensus()
	compareHosts(t, "serving", ca.serving, cb.serving)
	compareHosts(t, "evacuating", ca.evacuating, cb.evacuating)
	compareHosts(t, "waking", ca.waking, cb.waking)
	compareHosts(t, "sleeping", ca.sleeping, cb.sleeping)
	compareHosts(t, "entering", ca.entering, cb.entering)
	ha, ka, oka := a.m.packServing(fa, ca)
	hb, kb, okb := b.m.packServing(fb, cb)
	if ka != kb || oka != okb {
		t.Fatalf("packing diverged: k=%d ok=%v vs k=%d ok=%v", ka, oka, kb, okb)
	}
	compareHosts(t, "plan", ha, hb)
	la, lb := a.m.hostForecastLoads(fa), b.m.hostForecastLoads(fb)
	if len(la) != len(lb) {
		t.Fatalf("load vector length diverged: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("load for host %d diverged: %v vs %v", i+1, la[i], lb[i])
		}
	}
}

// checkParity runs an incremental and a full-scan world through the
// same script, compares their planning state every simulated hour, and
// at the horizon compares what the run produced: the audit trail and
// the fleet's energy. It returns the incremental world.
func checkParity(t *testing.T, traces []*workload.Trace, script []parityEvent, v parityVariant, horizon time.Duration) *parityWorld {
	t.Helper()
	a := buildParityWorld(t, true, traces, script, v)
	b := buildParityWorld(t, false, traces, script, v)
	for at := time.Hour; at <= horizon; at += time.Hour {
		a.eng.RunUntil(sim.Time(at))
		b.eng.RunUntil(sim.Time(at))
		comparePlanning(t, a, b)
	}
	a.cl.Flush()
	b.cl.Flush()
	ea, eb := a.cl.Events().All(), b.cl.Events().All()
	if len(ea) != len(eb) {
		t.Fatalf("event logs diverged: %d vs %d events", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d diverged: %v vs %v", i, ea[i], eb[i])
		}
	}
	if ja, jb := a.cl.TotalEnergy(), b.cl.TotalEnergy(); ja != jb {
		t.Fatalf("energy diverged: %v vs %v", ja, jb)
	}
	return a
}

// TestIncrementalPlanningParity is the property test: across random
// churn scripts — pending arrivals, departures, crashes, maintenance,
// injected transition faults driving retries and quarantines — the
// incremental and full-scan planners agree on every intermediate at
// every checkpoint.
func TestIncrementalPlanningParity(t *testing.T) {
	const horizon = 8 * time.Hour
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := parityScript(seed, 16, 64, sim.Time(horizon))
			checkParity(t, parityTraces(seed*101, 0), script, parityVariant{}, horizon)
		})
	}
}

// TestIncrementalPlanningParityCtrlPlane repeats the parity property
// under a lossy, delayed control plane, so liveness transitions
// (suspect, presumed-dead, recovery) and asynchronous command
// completions also hit the incremental invalidation paths.
func TestIncrementalPlanningParityCtrlPlane(t *testing.T) {
	const horizon = 8 * time.Hour
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := parityScript(seed+10, 16, 64, sim.Time(horizon))
			checkParity(t, parityTraces(seed*131, 0), script, parityVariant{plane: true}, horizon)
		})
	}
}

// TestIncrementalPlanningParityFeatures repeats the parity property on
// the feature axes the base world leaves out: predictive wake (the
// diurnal model forces the eager forecast sweep under the epoch
// caches, and predicts once half a day is observed, hence the full-day
// horizon), a DVFS policy (frequency moves dirty hosts without any
// placement change), a mixed 32/16-core fleet (packing order and
// capacity differ per host), and wake failures (slow S3 resume
// fallbacks plus injected failed wakes that retry and quarantine),
// DPM-S5 (soft-off parking, whose minutes-long wakes keep hosts in
// transition across many control steps), the panic brake under a
// lossy control plane (wake-all, cancelled evacuations and a held
// scale-down invalidate every cached plan at once), the static policy,
// alone and under a lossy plane, and nopm-drm, whose invocations mostly
// read no forecast, so a read catches VMs up over many invocations, and
// demand surges, alone, under a lossy plane and under the static
// policy, which rescale demand the catch-up would otherwise read at
// past invocations.
func TestIncrementalPlanningParityFeatures(t *testing.T) {
	const horizon = 24 * time.Hour
	cases := []struct {
		name string
		v    parityVariant
	}{
		{"predictive-wake", parityVariant{predictive: true}},
		{"dvfs", parityVariant{dvfs: true}},
		{"hetero-32-16", parityVariant{hetero: true}},
		{"wake-failures", parityVariant{wakeFails: 12, resumeFail: 0.2}},
		{"dpm-s5", parityVariant{s5: true}},
		{"panic-brake", parityVariant{s5: true, panicAt: 0.05, plane: true}},
		{"static", parityVariant{static: true}},
		{"nopm-drm", parityVariant{nopm: true, noise: 0.2}},
		{"static-plane", parityVariant{static: true, plane: true}},
		{"surge", parityVariant{surge: true}},
		{"surge-plane", parityVariant{surge: true, plane: true}},
		{"surge-static", parityVariant{surge: true, static: true}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				script := parityScript(seed+20, 16, 64, sim.Time(horizon))
				w := checkParity(t, parityTraces(seed*151, tc.v.noise), script, tc.v, horizon)
				if tc.v.panicAt > 0 && w.m.Stats().Panics == 0 {
					t.Fatal("the panic brake never fired, so the case compares nothing it names")
				}
			})
		}
	}
}

// TestManagerStepSteadyStateAllocFree pins the tentpole's steady-state
// contract: on a quiescent fleet — no pending VMs, no feasible
// consolidation, demand below the wake threshold, no hot hosts — a
// cached control step allocates nothing at all.
func TestManagerStepSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nHosts = 64
	for i := 0; i < nHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	// 8 VMs per host at ~1.675 cores each: per-host load ≈ 13.4 stays
	// under the 0.90·16 load-balance threshold, the fleet total
	// (≈857.6) stays under the 0.85·1024 wake threshold, but exceeds
	// the Σ 0.70·16 packing capacity (716.8) so MinBins proves every
	// consolidation prefix infeasible without packing anything.
	demands := []float64{1.60, 1.65, 1.70, 1.75}
	for i := 0; i < nHosts*8; i++ {
		cfg := vm.Config{VCPUs: 2, MemoryGB: 8, Trace: workload.Constant(demands[i%4])}
		if _, err := cl.AddVM(cfg, host.ID(i%nHosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: DPMS3})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	if allocs := testing.AllocsPerRun(100, func() { m.step() }); allocs != 0 {
		t.Fatalf("steady-state control step allocates: %v allocs/op, want 0", allocs)
	}
}

// TestPackServingAllocFree pins the recomputed control step: after an
// epoch bump the step rebuilds the packing plan, and MinBins packs
// prefixes of the serving hosts on the manager's reused packer, with
// nothing allocated. The fleet packs into far fewer hosts than it has,
// and SpareHosts keeps every host on, so the plan is searched for in
// full and never acted on.
func TestPackServingAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nHosts = 64
	for i := 0; i < nHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	// 8 VMs per host at 0.4–0.55 cores: about 3.8 cores per host, so
	// the fleet's 243 cores pack into 22 of the 64 hosts' 11.2-core
	// packing capacity.
	demands := []float64{0.40, 0.45, 0.50, 0.55}
	for i := 0; i < nHosts*8; i++ {
		cfg := vm.Config{VCPUs: 2, MemoryGB: 8, Trace: workload.Constant(demands[i%4])}
		if _, err := cl.AddVM(cfg, host.ID(i%nHosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: DPMS3, SpareHosts: nHosts})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	step := func() {
		m.invalidate()
		m.step()
	}
	step()
	if !m.planOK || m.planK == 0 || m.planK >= nHosts {
		t.Fatalf("plan k=%d ok=%v: the step does not pack a proper prefix", m.planK, m.planOK)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("recomputed control step allocates: %v allocs/op, want 0", allocs)
	}
}

// TestStaticManagerSkipsForecastUpkeep pins the lazy upkeep's point: a
// static manager reads forecasts only to place an arrival or drain a
// maintenance host, so over a day with neither it observes no VM after
// its first invocation. The arrival that follows must then be placed
// with the forecasts the full-scan oracle, which observed every VM at
// every invocation, holds at the same instant.
func TestStaticManagerSkipsForecastUpkeep(t *testing.T) {
	traces := parityTraces(7, 0)
	a := buildParityWorld(t, true, traces, nil, parityVariant{static: true})
	b := buildParityWorld(t, false, traces, nil, parityVariant{static: true})
	a.eng.RunUntil(sim.Time(24 * time.Hour))
	b.eng.RunUntil(sim.Time(24 * time.Hour))
	if n := a.m.stats.ControlSteps; n < 288 {
		t.Fatalf("%d control steps in a day, want one every 5 minutes", n)
	}
	for _, v := range a.cl.VMs() {
		if at := a.m.lastObs[v.ID()-1]; at != 0 {
			t.Fatalf("vm %d observed at %v; a static day without arrivals reads no forecast", v.ID(), at)
		}
	}
	for _, w := range []*parityWorld{a, b} {
		w.cl.AddPendingVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: traces[0]})
		w.eng.RunUntil(sim.Time(24*time.Hour) + w.cl.EvalStep())
	}
	if a.m.stats != b.m.stats || a.m.stats.Provisioned != 1 {
		t.Fatalf("arrival handled differently:\n  incremental %+v\n  full-scan   %+v", a.m.stats, b.m.stats)
	}
	id := a.cl.MaxVMID()
	ha, _ := a.cl.Placement(id)
	hb, _ := b.cl.Placement(id)
	if ha != hb {
		t.Fatalf("arrival placed on host %d, full-scan oracle on host %d", ha, hb)
	}
	// The slots as the placement read them, with no further read.
	for _, v := range a.cl.VMs() {
		if i := v.ID() - 1; a.m.fcv[i] != b.m.fcv[i] {
			t.Fatalf("forecast for vm %d read as %v, full-scan oracle %v", v.ID(), a.m.fcv[i], b.m.fcv[i])
		}
	}
}

// TestUnreadInvocationAllocFree pins the cost of an invocation whose
// phases read no forecast, a static manager's fast tick: it records
// its instant in the grid, dropping the instants that left the
// forecast window in place, and allocates nothing once the grid is
// warm.
func TestUnreadInvocationAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	traces := parityTraces(3, 0)
	for i := 0; i < 64; i++ {
		cfg := vm.Config{VCPUs: 4, MemoryGB: 4, Trace: traces[i%len(traces)]}
		if _, err := cl.AddVM(cfg, host.ID(i%16+1)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: Static})
	if err != nil {
		t.Fatal(err)
	}
	step := cl.EvalStep()
	tick := func() {
		eng.RunUntil(eng.Now() + step)
		m.wakeCheck()
	}
	for eng.Now() < time.Hour {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("an invocation that reads nothing allocates: %v allocs/op, want 0", allocs)
	}
	if want := int(m.window/step) + 1; len(m.grid) != want {
		t.Fatalf("grid holds %d instants, want the %d inside the window", len(m.grid), want)
	}
}
