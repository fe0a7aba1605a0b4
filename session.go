package agilepower

import (
	"fmt"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/core"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/faults"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/script"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// Session is a live simulation: the clock is stepped explicitly, and
// operator actions (maintenance, manual queries) interleave with the
// manager's control loop. Scenario.Run is the one-shot convenience
// wrapper around Start → RunUntil(Horizon) → Result.
type Session struct {
	scenario Scenario
	eng      *sim.Engine
	cl       *cluster.Cluster
	mgr      *core.Manager
	churn    ChurnStats
	profile  *Profile
	hosts    int
	cores    float64
	finished bool

	// Script and assertion state (nil without a script/asserts).
	// baseFaults is the scenario's construction-time fault config, the
	// restore point for bounded fault-rate/wake-fail windows.
	inj        *faults.Injector
	cp         *ctrlplane.Plane
	asserts    *assertEngine
	baseFaults faults.Config
}

// Start builds the scenario's cluster and manager and performs the
// initial evaluation, leaving the clock at zero.
func (s Scenario) Start() (*Session, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(s.Seed)
	profile := resolvedProfile(s)
	cl, totalHosts, meanCores, err := buildWorld(eng, s, profile)
	if err != nil {
		return nil, err
	}
	return startSession(s, eng, cl, profile, totalHosts, meanCores)
}

// resolvedProfile returns the scenario's power calibration, defaulted.
func resolvedProfile(s Scenario) *Profile {
	if s.Profile != nil {
		return s.Profile
	}
	return power.DefaultProfile()
}

// buildWorld performs the scenario's world construction: the empty
// cluster, the host fleet, and the initial placement. None of it
// schedules engine events or consumes randomness — the property that
// lets Prototype capture the result once and Fork replay the remaining
// Start steps per cell with byte-identical output.
func buildWorld(eng *sim.Engine, s Scenario, profile *Profile) (*cluster.Cluster, int, float64, error) {
	cl, err := cluster.New(eng, cluster.Config{
		EvalStep:     s.EvalStep,
		Migration:    s.Migration,
		Horizon:      s.Horizon,
		Shards:       s.Shards,
		TelemetryCap: s.TelemetryCap,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	totalHosts, meanCores, err := buildHosts(cl, s, profile)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := placeInitial(cl, s.VMs); err != nil {
		return nil, 0, 0, err
	}
	return cl, totalHosts, meanCores, nil
}

// startSession runs every Start step after world construction: the
// manager, fault injection, the control plane, churn, and the
// start-of-time evaluations. The step order — and with it the engine's
// event sequence and RNG fork order — is shared verbatim by the cold
// Start path and Prototype.Fork, which is what makes forked runs
// byte-identical to cold ones.
func startSession(s Scenario, eng *sim.Engine, cl *cluster.Cluster, profile *Profile, totalHosts int, meanCores float64) (*Session, error) {
	scriptTunesFaults := false
	for _, e := range s.Script {
		if e.Action == script.ActionFaultRate {
			scriptTunesFaults = true
		}
	}
	mgr, err := core.NewManager(cl, s.Manager)
	if err != nil {
		return nil, err
	}
	// Fault injection: only an enabled config constructs an injector —
	// even forking the RNG for a dormant one would perturb the stream
	// and break byte-identity with fault-free runs.
	var inj *faults.Injector
	if s.Faults != nil && s.Faults.Enabled() {
		inj, err = faults.New(eng, *s.Faults)
		if err != nil {
			return nil, err
		}
		cl.InjectFaults(inj, inj)
		fleet := cl.Hosts()
		crash := func(idx int, repair time.Duration) bool {
			return cl.CrashHost(fleet[idx].ID(), repair) == nil
		}
		if scriptTunesFaults {
			// A fault-rate event may introduce a crash process the base
			// config lacks; start every per-host process now (paused
			// while MTBF is zero) so the schedule is seed-pure.
			inj.ScheduleCrashProcesses(len(fleet), crash)
		} else {
			inj.ScheduleCrashes(len(fleet), crash)
		}
	}
	// Control plane: same dormancy rule as faults. The RNG fork order
	// is fixed — faults first, then ctrlplane — so enabling one
	// subsystem reseeds the other's substream deterministically; both
	// packages document the ordering.
	var cp *ctrlplane.Plane
	if s.CtrlPlane != nil && s.CtrlPlane.Enabled() {
		cp, err = ctrlplane.New(eng, cl, *s.CtrlPlane, mgr.Counters())
		if err != nil {
			return nil, err
		}
		mgr.AttachControlPlane(cp)
	}
	se := &Session{
		scenario: s,
		eng:      eng,
		cl:       cl,
		mgr:      mgr,
		profile:  profile,
		hosts:    totalHosts,
		cores:    meanCores,
		inj:      inj,
		cp:       cp,
	}
	if inj != nil {
		se.baseFaults = inj.Config()
	}
	if s.Churn != nil {
		scheduleChurn(eng, cl, *s.Churn, s.Horizon, &se.churn)
	}
	// Script events and assertion hooks are pure additions: an empty
	// script schedules nothing and empty asserts register no observer,
	// so script-free runs stay byte-identical (dormancy by
	// construction).
	if len(s.Script) > 0 {
		se.compileScript(s.Script)
	}
	if len(s.Asserts) > 0 {
		se.asserts = newAssertEngine(s.Asserts)
		cl.OnTick(se.asserts.tick)
	}
	cl.Start()
	mgr.Start()
	if cp != nil {
		cp.Start()
	}
	return se, nil
}

// Prototype is a scenario's world, built once: validation, the host
// fleet, and the initial placement are already done, captured in a
// pristine (never-started) cluster. Fork stamps out runnable Sessions
// from it with flat slice copies — no per-host construction, no
// re-placement, no profile clones — so a grid of experiment cells over
// one fleet pays world construction once instead of once per cell.
//
// A Prototype is immutable after creation: Fork only reads it, so any
// number of forks may proceed concurrently (the parallel policy and
// replication runners do exactly that).
type Prototype struct {
	// world is the normalized scenario the world was built from; Fork
	// checks cells against it so a fork can never silently run on a
	// different fleet than it asked for.
	world   Scenario
	profile *Profile
	cl      *cluster.Cluster
	hosts   int
	cores   float64
}

// Prototype builds the scenario's world once for repeated forking.
// The cell-level knobs (Name, Seed, Manager, Faults, CtrlPlane, Churn)
// of the receiving scenario are ignored — each Fork supplies its own —
// while the world-defining fields (fleet shape, VMs, horizon,
// evaluation knobs) are fixed here and must match on every Fork.
func (s Scenario) Prototype() (*Prototype, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(s.Seed)
	profile := resolvedProfile(s)
	cl, totalHosts, meanCores, err := buildWorld(eng, s, profile)
	if err != nil {
		return nil, err
	}
	// Every Fork clones the construction log copy-on-write. Marking it
	// shared here, once, keeps concurrent forks read-only on it.
	cl.Events().Share()
	return &Prototype{world: s, profile: profile, cl: cl, hosts: totalHosts, cores: meanCores}, nil
}

// Fork materializes a runnable Session for one experiment cell from
// the prototype's world: the cluster forks as flat slice copies, then
// the post-construction Start steps (manager, faults, control plane,
// churn, initial evaluation) run exactly as a cold Start would, on a
// fresh engine seeded with the cell's Seed. The result is
// byte-identical to sc.Start() for any sc whose world fields match the
// prototype's.
func (p *Prototype) Fork(sc Scenario) (*Session, error) {
	sc = sc.withDefaults()
	if err := p.compatible(sc); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(sc.Seed)
	cl, err := p.cl.Fork(eng)
	if err != nil {
		return nil, err
	}
	return startSession(sc, eng, cl, p.profile, p.hosts, p.cores)
}

// Run is the one-shot form of Fork → RunUntil(Horizon) → Result, the
// forked counterpart of Scenario.Run.
func (p *Prototype) Run(sc Scenario) (*Result, error) {
	se, err := p.Fork(sc)
	if err != nil {
		return nil, err
	}
	if err := se.RunUntil(sc.withDefaults().Horizon); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

// compatible checks that a cell scenario describes the same world the
// prototype captured. Cell fields (Name, Seed, Manager, Faults,
// CtrlPlane, Churn) are free to vary; everything that went into world
// construction must match. VMs must be the same slice, not merely
// equal specs: prototype reuse is only sound when cells share one
// fleet.
func (p *Prototype) compatible(sc Scenario) error {
	w := p.world
	mismatch := ""
	switch {
	case sc.Hosts != w.Hosts:
		mismatch = "Hosts"
	case sc.HostCores != w.HostCores:
		mismatch = "HostCores"
	case sc.HostMemoryGB != w.HostMemoryGB:
		mismatch = "HostMemoryGB"
	case sc.Profile != w.Profile:
		mismatch = "Profile"
	case !sameHostClasses(sc.HostClasses, w.HostClasses):
		mismatch = "HostClasses"
	case !sameVMs(sc.VMs, w.VMs):
		mismatch = "VMs"
	case sc.Horizon != w.Horizon:
		mismatch = "Horizon"
	case !sameMigration(sc.Migration, w.Migration):
		mismatch = "Migration"
	case sc.EvalStep != w.EvalStep:
		mismatch = "EvalStep"
	case sc.Shards != w.Shards:
		mismatch = "Shards"
	case sc.TelemetryCap != w.TelemetryCap:
		mismatch = "TelemetryCap"
	}
	if mismatch != "" {
		return fmt.Errorf("agilepower: forked scenario differs from prototype world in %s", mismatch)
	}
	return nil
}

// sameVMs reports whether two scenarios share one VM fleet — the same
// backing slice, not just equal specs.
func sameVMs(a, b []VMSpec) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// sameHostClasses compares class lists element-wise (HostClass is
// comparable; profile pointers must match).
func sameHostClasses(a, b []HostClass) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameMigration compares optional migration models by value.
func sameMigration(a, b *MigrationModel) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// runScenario runs one grid cell: as a fork of proto when a prototype
// is available, and as a cold start otherwise. The two paths produce
// identical bytes; proto == nil is the fallback when prototype
// construction itself failed, so the cold path re-surfaces the
// construction error per cell.
func runScenario(proto *Prototype, sc Scenario) (*Result, error) {
	if proto != nil {
		return proto.Run(sc)
	}
	return sc.Run()
}

// Now returns the current virtual time.
func (se *Session) Now() time.Duration { return time.Duration(se.eng.Now()) }

// RunUntil advances virtual time to at (absolute).
func (se *Session) RunUntil(at time.Duration) error {
	if se.finished {
		return fmt.Errorf("agilepower: session already finished")
	}
	if at < se.Now() {
		return fmt.Errorf("agilepower: cannot run to %v, already at %v", at, se.Now())
	}
	se.eng.RunUntil(at)
	return nil
}

// Step advances virtual time by d.
func (se *Session) Step(d time.Duration) error { return se.RunUntil(se.Now() + d) }

// EnterMaintenance drains host id and holds it out of service.
func (se *Session) EnterMaintenance(id int) error {
	return se.mgr.EnterMaintenance(host.ID(id))
}

// ExitMaintenance returns host id to service.
func (se *Session) ExitMaintenance(id int) error {
	return se.mgr.ExitMaintenance(host.ID(id))
}

// MaintenanceReady reports whether host id has fully drained.
func (se *Session) MaintenanceReady(id int) bool {
	return se.mgr.MaintenanceReady(host.ID(id))
}

// RemoveVM departs a VM immediately (operator decommission).
func (se *Session) RemoveVM(id int) error { return se.cl.RemoveVM(vm.ID(id)) }

// AddVM submits a new VM for provisioning; it is placed by the manager
// within a monitoring tick. Returns the VM's id.
func (se *Session) AddVM(spec VMSpec) (int, error) {
	if spec.Trace == nil {
		return 0, fmt.Errorf("agilepower: vm needs a trace")
	}
	v, err := se.cl.AddPendingVM(vm.Config{
		Name:          spec.Name,
		VCPUs:         spec.VCPUs,
		MemoryGB:      spec.MemoryGB,
		Trace:         spec.Trace,
		SLOTarget:     spec.SLOTarget,
		Shares:        spec.Shares,
		Group:         spec.Group,
		ReservedCores: spec.ReservedCores,
		LimitCores:    spec.LimitCores,
	})
	if err != nil {
		return 0, err
	}
	return int(v.ID()), nil
}

// ActiveHosts returns how many hosts can serve right now.
func (se *Session) ActiveHosts() int { return len(se.cl.AvailableHosts()) }

// PowerW returns the instantaneous cluster draw in watts.
func (se *Session) PowerW() float64 { return float64(se.cl.TotalPower()) }

// DemandCores returns the instantaneous total demand.
func (se *Session) DemandCores() float64 { return se.cl.TotalDemand() }

// Events returns the audit log so far.
func (se *Session) Events() *EventLog { return se.cl.Events() }

// Progress is one evaluation tick's cluster-wide aggregates, the
// public face of the cluster's tick observer: what a streaming client
// watches while a run advances.
type Progress struct {
	// At is the virtual time of the tick.
	At time.Duration
	// PowerW is the instantaneous cluster draw.
	PowerW float64
	// DemandCores and DeliveredCores are the fleet-wide CPU totals.
	DemandCores    float64
	DeliveredCores float64
	// ActiveHosts counts hosts able to serve.
	ActiveHosts int
	// StrandedVMs and PendingVMs are the unhealthy/unplaced counts.
	StrandedVMs int
	PendingVMs  int
}

// OnProgress registers fn to observe every evaluation tick. Observers
// chain — the scenario assertion engine and any number of progress
// listeners coexist — and registering one schedules no events and
// consumes no randomness, so an observed run stays byte-identical to
// an unobserved one. fn runs on the simulation goroutine: it must not
// block, and it must not call back into the session.
func (se *Session) OnProgress(fn func(Progress)) {
	se.cl.OnTick(func(ts cluster.TickStats) {
		fn(Progress{
			At:             time.Duration(ts.Now),
			PowerW:         ts.PowerW,
			DemandCores:    ts.Demand,
			DeliveredCores: ts.Delivered,
			ActiveHosts:    ts.Active,
			StrandedVMs:    ts.Stranded,
			PendingVMs:     ts.Pending,
		})
	})
}

// CheckInvariants verifies structural consistency (for tests and
// debugging).
func (se *Session) CheckInvariants() error { return se.cl.CheckInvariants() }

// Result finalizes accounting at the current time and collects the
// outcome. The session cannot be advanced afterwards.
func (se *Session) Result() *Result {
	se.cl.Flush()
	se.cl.Close() // retire the shard workers, if any
	se.finished = true
	horizon := se.Now()
	if horizon == 0 {
		horizon = time.Nanosecond // avoid division by zero on empty runs
	}
	churnStatsFrom(se.cl, &se.churn)
	evalTicks, hostEvals := se.cl.EvalCounts()
	agg := se.cl.AggregateSLA()
	entries, exits := se.cl.PowerActions()
	suspendFails, wakeFails, crashes := se.cl.TransitionFaultStats()
	res := &Result{
		Scenario:          se.scenario.Name,
		Policy:            se.mgr.Config().Policy.Name,
		Horizon:           horizon,
		Energy:            se.cl.TotalEnergy(),
		MeanPowerW:        float64(se.cl.TotalEnergy()) / horizon.Seconds(),
		PeakPowerW:        se.cl.PowerSeries().Max(),
		Satisfaction:      agg.Satisfaction(),
		ViolationFraction: agg.ViolationFraction(),
		UnmetCoreHours:    agg.UnmetCoreSeconds() / 3600,
		Manager:           se.mgr.Stats(),
		Migrations:        se.cl.Migrations().Stats(),
		Sleeps:            entries,
		Wakes:             exits,
		ResumeFailures:    se.cl.ResumeFailures(),
		Churn:             se.churn,
		FaultCounters:     se.mgr.Counters().Snapshot(),
		SuspendFailures:   suspendFails,
		WakeFailures:      wakeFails,
		Crashes:           crashes,
		StrandedVMHours:   se.cl.StrandedVMSeconds() / 3600,
		Events:            se.cl.Events(),
		Power:             se.cl.PowerSeries(),
		Demand:            se.cl.DemandSeries(),
		Delivered:         se.cl.DeliveredSeries(),
		ActiveHosts:       se.cl.ActiveHostSeries(),
		Hosts:             se.hosts,
		HostCores:         se.cores,
		Profile:           se.profile,
		EvalTicks:         evalTicks,
		HostEvals:         hostEvals,
		StrandedVMs:       se.cl.StrandedCount(),
	}
	if se.asserts != nil {
		se.asserts.finish(res)
	}
	return res
}

// buildHosts creates the host fleet from the scenario (classes or
// homogeneous) and returns (count, mean cores). Power profiles are
// interned: every host of a class shares one immutable Profile
// instance (machines never mutate their profile) instead of cloning it
// per host — at 100k hosts that is 100k fewer deep copies per cell.
func buildHosts(cl *cluster.Cluster, s Scenario, profile *Profile) (int, float64, error) {
	if len(s.HostClasses) > 0 {
		totalHosts, meanCores := 0, 0.0
		for _, hc := range s.HostClasses {
			cores := hc.Cores
			if cores == 0 {
				cores = 16
			}
			mem := hc.MemoryGB
			if mem == 0 {
				mem = 256
			}
			prof := hc.Profile
			if prof == nil {
				prof = profile
			}
			for i := 0; i < hc.Count; i++ {
				if _, err := cl.AddHost(host.Config{
					Cores:    cores,
					MemoryGB: mem,
					Profile:  prof,
				}); err != nil {
					return 0, 0, err
				}
			}
			totalHosts += hc.Count
			meanCores += cores * float64(hc.Count)
		}
		return totalHosts, meanCores / float64(totalHosts), nil
	}
	for i := 0; i < s.Hosts; i++ {
		if _, err := cl.AddHost(host.Config{
			Cores:    s.HostCores,
			MemoryGB: s.HostMemoryGB,
			Profile:  profile,
		}); err != nil {
			return 0, 0, err
		}
	}
	return s.Hosts, s.HostCores, nil
}

// vmConfig translates a VMSpec into the cluster's vm.Config.
func vmConfig(spec VMSpec) vm.Config {
	return vm.Config{
		Name:          spec.Name,
		VCPUs:         spec.VCPUs,
		MemoryGB:      spec.MemoryGB,
		Trace:         spec.Trace,
		SLOTarget:     spec.SLOTarget,
		Shares:        spec.Shares,
		Group:         spec.Group,
		ReservedCores: spec.ReservedCores,
		LimitCores:    spec.LimitCores,
	}
}

// placeInitial spreads the fleet round-robin, skipping forward past
// hosts that cannot take the VM.
//
// Admission is screened through a per-host mirror of exactly the
// arithmetic host.Place rejects with — committed memory accumulated in
// placement order and reserved CPU against the same 1e-9 epsilon — so
// the first host the screen accepts is the first host the old
// try-until-AddVM-succeeds chain would have landed on, without paying
// a failed (error-allocating) AddVM call per skipped host. That chain
// was O(VMs × hosts) AddVM calls in the worst case; the screen is
// three comparisons per probe. If the screen and the cluster ever
// disagree (a VM spec error, or an admission rule the mirror does not
// model), the legacy retry chain runs verbatim for that VM, so
// placement and errors stay bit-for-bit what the old loop produced.
func placeInitial(cl *cluster.Cluster, specs []VMSpec) error {
	hosts := cl.Hosts()
	n := len(hosts)
	memCap := make([]float64, n)
	memUsed := make([]float64, n)
	cpuCap := make([]float64, n)
	cpuRes := make([]float64, n)
	for j, h := range hosts {
		memCap[j] = h.MemoryGB()
		memUsed[j] = h.MemUsedGB()
		cpuCap[j] = h.Cores()
		cpuRes[j] = h.CPUReservedCores()
	}
	for i, spec := range specs {
		cfg := vmConfig(spec)
		placed := false
		for try := 0; try < n; try++ {
			j := (i + try) % n
			// Mirror of host.Place's admission checks (same expressions,
			// same accumulation order, so the FP results are bitwise
			// identical to what Place would compute).
			if spec.MemoryGB > memCap[j]-memUsed[j] {
				continue
			}
			if cpuRes[j]+spec.ReservedCores > cpuCap[j]+1e-9 {
				continue
			}
			if spec.Group != "" && cl.GroupConflict(hosts[j].ID(), spec.Group, 0) {
				continue
			}
			if _, err := cl.AddVM(cfg, hosts[j].ID()); err != nil {
				break // screen disagreed with the cluster: legacy chain below
			}
			memUsed[j] += spec.MemoryGB
			cpuRes[j] += spec.ReservedCores
			placed = true
			break
		}
		if placed {
			continue
		}
		// Legacy retry chain, preserved verbatim: replaying from the top
		// reproduces the old loop's placement — and its error, when no
		// host takes the VM — exactly. Failed AddVM calls have no side
		// effects, so the screened attempt above does not perturb it.
		var lastErr error
		for try := 0; try < n; try++ {
			j := (i + try) % n
			if _, lastErr = cl.AddVM(cfg, hosts[j].ID()); lastErr == nil {
				memUsed[j] += spec.MemoryGB
				cpuRes[j] += spec.ReservedCores
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
