package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
)

// Stats are cumulative manager counters — the raw material for the
// paper's management-overhead comparison (migrations and power actions
// per hour, DPM vs base DRM).
type Stats struct {
	ControlSteps int
	// MigrationsLB counts load-balancing moves (base DRM overhead).
	MigrationsLB int
	// MigrationsConsolidation counts packing/evacuation moves (the
	// extra overhead power management adds).
	MigrationsConsolidation int
	// MigrationsFailed counts refused start attempts (slots full,
	// memory pressure, an anti-affinity clash, a nack over a control
	// plane). It counts attempts, not distinct moves: every replan
	// tries each planned drain move again and counts one refusal for
	// each that does not start, so a move that waits for a slot is
	// counted again at every migration completion until it starts.
	MigrationsFailed int
	Wakes            int
	Sleeps           int
	// Provisioned counts pending VMs placed onto hosts.
	Provisioned int
	// Panics counts emergency-brake activations (see
	// Config.PanicShortfall).
	Panics int
	// FreqChanges counts DVFS adjustments.
	FreqChanges int
}

// Manager is the power-aware virtualization manager: the paper's
// contribution. It runs a periodic control loop over a cluster,
// forecasting demand, balancing load, consolidating VMs, and driving
// host power states.
type Manager struct {
	cl  *cluster.Cluster
	cfg Config

	// evacuating marks hosts being drained for parking. A host stays
	// marked until it is parked or reclaimed by a scale-up.
	evacuating hostSet

	// sleepDelay is the resolved flap-damping delay (see
	// Config.SleepDelay); shrinkSince tracks how long a scale-down
	// opportunity has persisted (negative = none open).
	sleepDelay  time.Duration
	shrinkSince sim.Time
	shrinkOpen  bool
	// wokeAt records each host's last settle into S0, for the park
	// cooldown.
	wokeAt map[host.ID]sim.Time
	// maintenance marks hosts held out of service by an operator; they
	// drain like evacuating hosts but are never parked or reclaimed by
	// scale-up.
	maintenance hostSet
	// Panic-brake state: consecutive over-shortfall ticks and the time
	// until which scale-down is suspended.
	panicTicks int
	panicUntil sim.Time
	// diurnal is the learned time-of-day demand model (nil unless
	// Config.PredictiveWake).
	diurnal *diurnalModel
	// wakeLead is how far ahead predictive wake looks: the sleep
	// state's exit latency plus one control period.
	wakeLead time.Duration

	// Robustness state (see robust.go). parking and wakingReq track
	// outstanding transition requests so the settle handler can tell a
	// success from an injected failure; retries/retryAt hold the capped
	// exponential backoff schedule per host; quarantined bars flaky
	// hosts from power actions until the recorded time; migFails and
	// migRetryAt put VMs whose migrations aborted on a re-plan backoff.
	parking     map[host.ID]bool
	wakingReq   map[host.ID]bool
	retries     map[host.ID]int
	retryAt     map[host.ID]sim.Time
	quarantined map[host.ID]sim.Time
	migFails    map[vm.ID]int
	migRetryAt  map[vm.ID]sim.Time
	counters    *telemetry.Counters

	// cp, when attached, is the imperfect message layer every power and
	// migration order travels over (see ctrl.go); trusted is the
	// liveness-filtered placement scratch it maintains. Both stay nil
	// in plane-free runs so the direct paths are untouched.
	cp      *ctrlplane.Plane
	trusted []*host.Host

	// Dense per-VM planning state, indexed vm.ID-1 (IDs are monotonic
	// and never reused; slots of departed VMs go stale but are never
	// read — every consumer iterates live-VM lists). These double as
	// the scratch buffers that keep the periodic loops allocation-free:
	// the control phases run sequentially and never nest (callbacks
	// fire from future events, not synchronously inside a phase), so at
	// most one forecast snapshot, one census, and one load vector are
	// live at any moment.
	fcs     []Forecaster // per-VM forecasters
	fcv     []float64    // forecasts result: clamped forecasts (written through setForecast)
	fcSeenB []bool       // eagerObserve liveness mark
	lastObs []sim.Time   // lazy mode: when each VM was last observed
	loads   []float64    // hostForecastLoads result: the load rows, by host.ID-1
	inbound []float64    // inboundMemory result, by host.ID-1
	cen     census       // takeCensus backing arrays
	lbVMs   []vm.ID      // balanceLoad sort scratch
	items   []Item       // buildItems scratch
	drain   drainScratch // planDrain scratch (see replan.go)
	parkIDs []host.ID    // drainEvacuating park-candidate scratch
	// buildBins scratch: binOf (by host.ID-1) holds each bin host's
	// bin position + 1 while buildBins runs and 0 otherwise; binInCPU
	// and binInMem (by bin position) sum in-flight inbound demand.
	binOf    []int32
	binInCPU []float64
	binInMem []float64

	// Per-host planning rows (see rows.go), by host.ID-1, empty until a
	// consumer first runs. loadClean flags the load rows in loads that
	// are current and loadStale lists the others; inHead and inNext
	// chain the in-flight moves by destination while load rows refresh.
	loadClean []bool
	loadStale []int32
	binRows   []binRow
	segRows   []segRow
	inHead    []int32
	inNext    []int32
	// rowCheck holds every row-backed value to the whole-fleet pass
	// (see CheckPlanningRowsForAll).
	rowCheck bool

	// Incremental planning state (see incremental.go). inc gates every
	// cache; lazyFC additionally gates the due-index forecast
	// maintenance (peak-window/last-value without predictive wake).
	inc     bool
	lazyFC  bool
	epoch   uint64 // planning-input generation
	fcEpoch uint64 // forecast-value / VM-set generation
	vmSeen  uint64 // cluster VMEpoch handled through
	maxInit vm.ID  // highest VM ID with initialized lazy state
	// grid holds the distinct manager invocation times inside the
	// forecast window, ascending, the latest last: the observation times
	// the lazy catch-up replays. window is the peak window the
	// forecasters use (0 for last-value). rescaledNow marks a demand
	// rescale after an invocation at the grid's latest instant.
	grid        []sim.Time
	window      sim.Time
	rescaledNow bool
	due         dueIndex // forecast due times

	// Cache keys: each cached value remembers the counters it was
	// computed under and is reused only on exact match.
	cenEpoch  uint64
	cenOK     bool
	totFC     uint64
	totOK     bool
	totVal    float64
	inbE      uint64
	inbOK     bool
	planE     uint64
	planF     uint64
	planValid bool
	planHosts []*host.Host // packServing sorted-host cache/scratch
	planK     int
	planOK    bool
	sortLoads []float64 // packServing per-host load scratch
	planPk    packer    // packServing bins and packing
	planHome  []int32   // packServing items' home bin positions

	// Power-feed cap (scenario power-cap events): capWatts is the feed
	// limit, capBudget the derived active-host budget. Zero means
	// uncapped — the default, and the only state the allocation-free
	// benchmarks exercise.
	capWatts  float64
	capBudget int

	stats   Stats
	started bool
}

// NewManager builds a manager over the cluster. The cluster must not
// have been started yet: the manager hooks host settle events.
func NewManager(cl *cluster.Cluster, cfg Config) (*Manager, error) {
	return newManager(cl, cfg, true)
}

// newManager builds a manager that plans incrementally (the production
// path) or, with incremental false, rebuilds every planning input by
// full scan each step. The full-scan planner is kept only as the test
// oracle the parity tests hold the incremental planner against: both
// make byte-identical decisions.
func newManager(cl *cluster.Cluster, cfg Config, incremental bool) (*Manager, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cl:          cl,
		cfg:         cfg,
		wokeAt:      make(map[host.ID]sim.Time),
		parking:     make(map[host.ID]bool),
		wakingReq:   make(map[host.ID]bool),
		retries:     make(map[host.ID]int),
		retryAt:     make(map[host.ID]sim.Time),
		quarantined: make(map[host.ID]sim.Time),
		migFails:    make(map[vm.ID]int),
		migRetryAt:  make(map[vm.ID]sim.Time),
		counters:    telemetry.NewCounters(),
	}
	if cfg.PredictiveWake {
		m.diurnal = newDiurnalModel(0.4)
	}
	m.inc = incremental
	m.rowCheck = incremental && rowCheckAll.Load()
	// Lazy forecast maintenance needs the forecast to be a pure
	// function of deadline-computable moments: peak-window and
	// last-value qualify; EWMA evolves on every observation and the
	// diurnal model consumes the whole demand sum each invocation, so
	// those run the eager sweep (with the epoch caches still active).
	m.lazyFC = m.inc && !cfg.PredictiveWake &&
		(cfg.Forecast.Kind == ForecastPeakWindow || cfg.Forecast.Kind == ForecastLastValue)
	if m.lazyFC {
		if pw, ok := m.newForecaster().(*peakWindow); ok {
			m.window = pw.window
		}
		// A rescale changes what a catch-up would read at past grid
		// times, so each rescaled VM is caught up before it.
		cl.OnDemandRescale(m.demandRescaled)
	}
	if m.inc {
		// The cluster's event feed is the invalidation signal for every
		// epoch-keyed cache and names the host whose planning rows went
		// stale: it fires on each event-path change to a host's
		// scheduling inputs, under the full-scan test oracle too.
		cl.OnHostDirty(func(id host.ID) {
			m.epoch++
			m.markHost(id)
		})
	}
	cl.OnHostSettled(m.hostSettled)
	cl.OnMigrationFailed(m.migrationFailed)
	cl.OnHostCrashed(m.hostCrashed)
	cl.OnMigrationDone(func(vm.ID, host.ID) {
		// Continue in-progress plans as slots free up: drains and
		// rebalances issue follow-up moves immediately instead of
		// trickling a few migrations per control period.
		if m.started && (m.cfg.Policy.Consolidate || m.cfg.Policy.LoadBalance) {
			m.continueMoves()
		}
	})
	return m, nil
}

// continueMoves re-runs the migration-issuing phases with fresh
// forecasts (no power decisions), used when migration slots free up.
func (m *Manager) continueMoves() {
	m.noteInvocation()
	m.drainEvacuating()
	if m.cfg.Policy.LoadBalance {
		m.balanceLoad()
	}
}

// EnterMaintenance marks a host for evacuation and keeps it out of
// service once drained: the operational "put host in maintenance mode"
// flow, reusing the consolidation drain machinery. An available host
// is not parked; it sits available-but-unused (ready for firmware
// work) until ExitMaintenance. A host settled in a sleep state has
// nothing to drain: the hold simply makes it ineligible for wake —
// the shape of a rack losing its power feed while parked. Hosts
// mid-transition are rejected; retry once they settle.
func (m *Manager) EnterMaintenance(id host.ID) error {
	h, ok := m.cl.Host(id)
	if !ok {
		return fmt.Errorf("core: unknown host %d", id)
	}
	mach := h.Machine()
	switch {
	case mach.Available():
		m.maintenance.add(id)
		m.evacuating.add(id)
	case mach.Phase() == power.Settled && mach.State().IsSleep():
		m.maintenance.add(id)
	default:
		return fmt.Errorf("core: host %d is mid-transition (%v/%v)", id, mach.State(), mach.Phase())
	}
	m.invalidate()
	if m.started {
		m.continueMoves()
	}
	return nil
}

// ExitMaintenance returns a host to service.
func (m *Manager) ExitMaintenance(id host.ID) error {
	if !m.maintenance.has(id) {
		return fmt.Errorf("core: host %d is not in maintenance", id)
	}
	m.maintenance.remove(id)
	m.evacuating.remove(id)
	m.invalidate()
	if m.started {
		m.step()
	}
	return nil
}

// InMaintenance reports whether the host is held for maintenance.
func (m *Manager) InMaintenance(id host.ID) bool { return m.maintenance.has(id) }

// MaintenanceReady reports whether a maintenance host has fully
// drained (safe to touch).
func (m *Manager) MaintenanceReady(id host.ID) bool {
	if !m.maintenance.has(id) {
		return false
	}
	h, ok := m.cl.Host(id)
	return ok && h.Empty() && m.cl.Migrations().HostLoad(int(id)) == 0
}

// Config returns the manager's effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// Start schedules the periodic control loop plus, for power-managing
// policies, a fast wake check every cluster evaluation step (the
// monitoring plane raises pressure alarms far more often than the
// placement optimizer runs). The Static policy schedules nothing: it
// is the unmanaged baseline.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	m.resolveSleepDelay()
	// Predictive wake looks ahead far enough to finish a wake (exit
	// latency) plus two control periods of reaction slack before a
	// learned ramp hits.
	m.wakeLead = 2 * m.cfg.Period
	if hosts := m.cl.Hosts(); len(hosts) > 0 && m.cfg.Policy.PowerManage {
		if spec, ok := hosts[0].Machine().Profile().SleepSpec(m.cfg.Policy.SleepState); ok {
			m.wakeLead += spec.ExitLatency
		}
	}
	eng := m.cl.Engine()
	var tick func()
	tick = func() {
		m.step()
		eng.AfterFunc(m.cfg.Period, tick)
	}
	eng.AfterFunc(0, tick)
	// The fast tick runs for every policy: provisioning monitoring
	// (placing arrivals) is basic duty, not power management. Only the
	// scale-up half inside wakeCheck is power-gated.
	if m.cl.EvalStep() < m.cfg.Period {
		var fast func()
		fast = func() {
			m.wakeCheck()
			eng.AfterFunc(m.cl.EvalStep(), fast)
		}
		eng.AfterFunc(m.cl.EvalStep(), fast)
	}
}

// resolveSleepDelay computes the latency-aware default scale-down
// persistence: twice the sleep state's round-trip latency. Slow states
// are parked cautiously; agile ones immediately. This is where the
// paper's core argument lands in the controller: transition latency
// sets how aggressive power management can afford to be.
func (m *Manager) resolveSleepDelay() {
	switch {
	case m.cfg.SleepDelay > 0:
		m.sleepDelay = m.cfg.SleepDelay
	case m.cfg.SleepDelay < 0:
		m.sleepDelay = 0
	default:
		hosts := m.cl.Hosts()
		if len(hosts) == 0 || !m.cfg.Policy.PowerManage {
			return
		}
		if spec, ok := hosts[0].Machine().Profile().SleepSpec(m.cfg.Policy.SleepState); ok {
			m.sleepDelay = 2 * spec.CycleLatency()
		}
	}
}

// totalForecast sums forecasts in VM-list order (a fixed order keeps
// the floating-point sum, and thus threshold decisions, deterministic
// across runs). The sum is pure in the VM set and forecast values, so
// it is cached under the forecast generation — an unchanged fcEpoch
// means an identical list summed in the identical order.
func (m *Manager) totalForecast(forecasts []float64) float64 {
	if m.inc && m.totOK && m.totFC == m.fcEpoch {
		return m.totVal
	}
	total := 0.0
	for _, v := range m.cl.VMs() {
		total += forecasts[v.ID()-1]
	}
	m.totVal = total
	m.totFC = m.fcEpoch
	m.totOK = true
	return total
}

// wakeCheck is the fast path: place arrivals and scale up if pressure
// demands it, nothing else.
func (m *Manager) wakeCheck() {
	m.noteInvocation()
	m.placePending()
	if m.cfg.Policy.PowerManage {
		m.checkPanic()
		m.scaleUp(m.forecasts(), m.takeCensus())
	}
	if m.cfg.Policy.DVFS {
		m.adjustFrequencies()
	}
}

// checkPanic is the emergency brake: under sustained unserved demand
// it wakes the whole fleet and suspends scale-down for PanicHold.
func (m *Manager) checkPanic() {
	if m.cfg.PanicShortfall <= 0 {
		return
	}
	demand, delivered := m.cl.LastEvaluation()
	if demand <= 0 || 1-delivered/demand <= m.cfg.PanicShortfall {
		m.panicTicks = 0
		return
	}
	m.panicTicks++
	if m.panicTicks < 2 {
		return
	}
	m.panicTicks = 0
	m.stats.Panics++
	m.panicUntil = m.cl.Engine().Now() + sim.Time(m.cfg.PanicHold)
	m.invalidate()
	// Everything wakes; evacuations (except operator maintenance)
	// cancel.
	for i, on := range m.evacuating.on {
		if id := host.ID(i + 1); on && !m.maintenance.has(id) {
			m.evacuating.remove(id)
		}
	}
	c := m.takeCensus()
	on := len(c.serving) + len(c.evacuating) + len(c.waking)
	for _, h := range m.cl.Hosts() {
		if m.capBudget > 0 && on >= m.capBudget {
			// Even panic respects the feed budget: tripping a breaker
			// serves nobody. The cap wins over wakes, never over
			// already-serving hosts.
			m.counters.Inc(CtrCapDeferredWakes)
			break
		}
		if m.distrusted(h.ID()) || m.hostCmdPending(h.ID()) {
			continue
		}
		if h.Machine().State().IsSleep() && h.Machine().Phase() == power.Settled {
			if err := m.wakeHost(h.ID()); err == nil {
				if m.cp == nil {
					m.stats.Wakes++
				}
				on++
			}
		}
	}
}

// placePending puts arrived-but-unplaced VMs onto the serving host
// with the most forecast slack (respecting memory admission). VMs that
// fit nowhere stay pending; their demand keeps pressure on scaleUp,
// which wakes capacity for them.
func (m *Manager) placePending() {
	// Counter check first: PendingVMs scans the whole VM list to build
	// its result, which the quiescent fast tick must not pay for.
	if m.cl.PendingCount() == 0 {
		return
	}
	pending := m.cl.PendingVMs()
	if len(pending) == 0 {
		return
	}
	c := m.takeCensus()
	// Static policies have no census distinction; any available host
	// (serving or evacuating) can take a new VM, preferring serving.
	// Maintenance holds are respected, as are liveness suspicions.
	candidates := append([]*host.Host(nil), m.trustedServing(c)...)
	for _, h := range c.evacuating {
		if !m.maintenance.has(h.ID()) && !m.distrusted(h.ID()) {
			candidates = append(candidates, h)
		}
	}
	if len(candidates) == 0 {
		return
	}
	forecasts := m.forecasts()
	loads := m.hostForecastLoads(forecasts)
	inboundMem := m.inboundMemory()
	for _, vid := range pending {
		v, ok := m.cl.VM(vid)
		if !ok {
			continue
		}
		var best *host.Host
		bestSlack := 0.0
		for _, h := range candidates {
			memFree := h.MemFreeGB() - inboundMem[h.ID()-1]
			if memFree < v.MemoryGB() {
				continue
			}
			if m.cl.GroupConflict(h.ID(), v.Group(), vid) {
				continue
			}
			slack := h.Cores()*m.cfg.TargetUtil - loads[h.ID()-1] - forecasts[vid-1]
			if slack < 0 && loads[h.ID()-1]+forecasts[vid-1] > h.Cores() {
				continue // would overload outright
			}
			if best == nil || slack > bestSlack {
				best = h
				bestSlack = slack
			}
		}
		if best == nil {
			continue
		}
		if err := m.cl.PlaceVM(vid, best.ID()); err != nil {
			continue
		}
		// PlaceVM fired the dirty feed, so the epoch already moved; the
		// in-phase load update below matches what the eager path does
		// and is discarded at the next (now-stale) cache read.
		m.stats.Provisioned++
		loads[best.ID()-1] += forecasts[vid-1]
		// A placed VM re-anchors an evacuating host into service.
		m.evacuating.remove(best.ID())
	}
}

// predictedDemand returns the learned demand peak within the wake-lead
// window, or 0 when prediction is off or unprimed.
func (m *Manager) predictedDemand() float64 {
	if m.diurnal == nil {
		return 0
	}
	v, ok := m.diurnal.PredictWindowMax(m.cl.Engine().Now(), m.wakeLead)
	if !ok {
		return 0
	}
	return v
}

// census classifies hosts by power condition.
type census struct {
	serving    []*host.Host // available and not marked evacuating
	evacuating []*host.Host // available but being drained
	waking     []*host.Host // exiting a sleep state
	sleeping   []*host.Host // settled in S3/S5
	entering   []*host.Host // on their way into a sleep state
}

func (m *Manager) takeCensus() census {
	// The census is pure in host machine states, liveness, and the
	// evacuating set — all epoch-tracked — so an unchanged epoch means
	// the cached classification is exactly what a rebuild would
	// produce. Callers that append to a returned census (scaleUp grows
	// serving/waking past the cached lengths) always bump the epoch
	// first via the reclaim or wake they perform, so the cached headers
	// below never see those appends.
	if m.inc && m.cenOK && m.cenEpoch == m.epoch {
		return m.cen
	}
	// Reuse the previous census's backing arrays; the returned value
	// (and any slices appended to it by the caller) must be dead by the
	// next takeCensus call, which the sequential control phases ensure.
	c := census{
		serving:    m.cen.serving[:0],
		evacuating: m.cen.evacuating[:0],
		waking:     m.cen.waking[:0],
		sleeping:   m.cen.sleeping[:0],
		entering:   m.cen.entering[:0],
	}
	for _, h := range m.cl.Hosts() {
		if m.ctrlDead(h.ID()) {
			// Presumed dead: plan around the host entirely. Its VMs'
			// demand still pressures scale-up (forecasts covers them), so
			// replacement capacity wakes without double-placing them.
			continue
		}
		mach := h.Machine()
		switch {
		case m.cp != nil && mach.Crashed():
			// With a control plane the manager cannot see the crash
			// directly; until liveness says otherwise the host keeps its
			// last-known class (commands sent to it will bounce).
			if m.evacuating.has(h.ID()) {
				c.evacuating = append(c.evacuating, h)
			} else {
				c.serving = append(c.serving, h)
			}
		case mach.Available():
			if m.evacuating.has(h.ID()) {
				c.evacuating = append(c.evacuating, h)
			} else {
				c.serving = append(c.serving, h)
			}
		case mach.Phase() == power.Exiting:
			c.waking = append(c.waking, h)
		case mach.Phase() == power.Entering:
			c.entering = append(c.entering, h)
		case mach.State().IsSleep():
			c.sleeping = append(c.sleeping, h)
		}
	}
	m.cen = c // retain grown backing arrays for the next step
	m.cenEpoch = m.epoch
	m.cenOK = true
	return c
}

func coresOf(hs []*host.Host) float64 {
	total := 0.0
	for _, h := range hs {
		total += h.Cores()
	}
	return total
}

// step runs one control period.
func (m *Manager) step() {
	m.stats.ControlSteps++
	m.noteInvocation()

	// Provisioning is basic duty for every policy, including the
	// static baseline: new VMs get placed; only *optimization* actions
	// are policy-gated.
	m.placePending()
	if m.cfg.Policy.PowerManage {
		m.managePower()
	}
	// Draining always runs: consolidation marks hosts only under those
	// policies, but operator maintenance holds must drain under any
	// policy.
	m.drainEvacuating()
	if m.cfg.Policy.LoadBalance {
		m.balanceLoad()
	}
	if m.cfg.Policy.DVFS {
		m.adjustFrequencies()
	}
}

// adjustFrequencies clocks each available host to its forecast load
// plus the packing headroom (a software governor at management
// granularity). Hosts whose profiles have no DVFS range are left
// alone.
func (m *Manager) adjustFrequencies() {
	loads := m.hostForecastLoads(m.forecasts())
	for _, h := range m.cl.Hosts() {
		if !h.Available() {
			continue
		}
		fmin := h.Machine().Profile().FreqMin
		if fmin <= 0 {
			continue
		}
		f := loads[h.ID()-1] / (h.Cores() * m.cfg.TargetUtil)
		if f < fmin {
			f = fmin
		}
		if f > 1 {
			f = 1
		}
		if err := h.SetFrequency(f); err == nil {
			m.stats.FreqChanges++
		}
	}
}

// managePower decides the active host set: wake on pressure, evacuate
// on slack, park drained hosts.
func (m *Manager) managePower() {
	c := m.takeCensus()
	forecasts := m.forecasts()
	if m.enforcePowerCap(forecasts, c) {
		c = m.takeCensus()
	}
	if m.scaleUp(forecasts, c) {
		m.shrinkOpen = false
		return
	}
	if m.cl.Engine().Now() < m.panicUntil {
		// Emergency brake engaged: no scale-down until the hold ends.
		m.shrinkOpen = false
		return
	}
	// Scale down: only with no wakes in flight (a wake in flight means
	// we recently judged capacity short — parking now would flap). Wake
	// orders still in transit on the control plane count as in flight.
	if len(c.waking) == 0 && m.pendingWakeCores(c) == 0 && len(c.serving) > m.cfg.MinActive {
		m.considerScaleDown(forecasts, c)
	} else {
		m.shrinkOpen = false
	}
}

// scaleUp wakes capacity when forecast pressure exceeds the wake
// threshold of what is (or will shortly be) available. It reports
// whether it acted or pressure is high.
func (m *Manager) scaleUp(forecasts []float64, c census) bool {
	total := m.totalForecast(forecasts)
	if p := m.predictedDemand(); p > total {
		// Wake ahead of a learned recurring ramp.
		total = p
	}
	servingCores := coresOf(c.serving)
	// Wake orders still in transit are capacity already asked for:
	// counting it keeps pressure from re-waking the fleet every fast
	// tick while commands crawl through the message layer.
	incomingCores := coresOf(c.waking) + m.pendingWakeCores(c)
	if total <= m.cfg.WakeThreshold*(servingCores+incomingCores) && len(c.serving)+len(c.waking) >= m.cfg.MinActive {
		return false
	}
	needCores := total / m.cfg.TargetUtil
	haveCores := servingCores + incomingCores
	// Cheapest capacity first: reclaim hosts being evacuated (they are
	// on and serving already). Maintenance hosts are operator-held and
	// never reclaimed.
	for _, h := range c.evacuating {
		if haveCores >= needCores && len(c.serving)+len(c.waking) >= m.cfg.MinActive {
			break
		}
		if m.capBudget > 0 && len(c.serving)+len(c.waking) >= m.capBudget {
			// Reclaiming would keep the host on past the feed budget —
			// cap enforcement marked it for a reason.
			m.counters.Inc(CtrCapDeferredWakes)
			break
		}
		if m.maintenance.has(h.ID()) {
			continue
		}
		if m.distrusted(h.ID()) || m.hostCmdPending(h.ID()) {
			// A park order already in flight (or a liveness suspicion)
			// makes this host unreliable capacity; wake elsewhere.
			continue
		}
		m.evacuating.remove(h.ID())
		m.invalidate()
		c.serving = append(c.serving, h)
		haveCores += h.Cores()
	}
	// Then wake sleepers, lowest ID first (deterministic). Quarantined
	// hosts are skipped (they proved flaky), as are hosts whose failed
	// wake already has a scheduled retry pending.
	for _, h := range c.sleeping {
		if haveCores >= needCores && len(c.serving)+len(c.waking) >= m.cfg.MinActive {
			break
		}
		if m.capBudget > 0 && len(c.serving)+len(c.evacuating)+len(c.waking) >= m.capBudget {
			// The feed budget is full: demand pressure must wait for
			// load to fall or the cap to lift. Best-effort semantics —
			// the cap wins over wake pressure, never over hosts already
			// serving.
			m.counters.Inc(CtrCapDeferredWakes)
			break
		}
		if m.isQuarantined(h.ID()) || m.parkHeld(h.ID()) {
			continue
		}
		if m.distrusted(h.ID()) || m.hostCmdPending(h.ID()) {
			continue
		}
		if err := m.wakeHost(h.ID()); err == nil {
			if m.cp == nil {
				m.stats.Wakes++
			}
			haveCores += h.Cores()
			c.waking = append(c.waking, h)
		}
	}
	return true
}

// SetPowerCap installs (watts > 0) or lifts (watts <= 0) a power-feed
// cap. The cap is enforced as an active-host budget: the largest host
// peak draw in the fleet divides the feed, so any budget-sized active
// set peaks below the cap regardless of which hosts are on. Semantics
// are best-effort by design — when even MinActive hosts exceed the
// budget, MinActive wins (hosts keep serving; SLA over cap), and
// hosts already on are drained rather than dropped.
func (m *Manager) SetPowerCap(watts float64) {
	if watts <= 0 {
		m.capWatts, m.capBudget = 0, 0
		m.invalidate()
		return
	}
	peak := 0.0
	for _, h := range m.cl.Hosts() {
		if p := float64(h.Machine().Profile().ActivePower(1)); p > peak {
			peak = p
		}
	}
	budget := 1
	if peak > 0 {
		if b := int(watts / peak); b > 1 {
			budget = b
		}
	}
	m.capWatts = watts
	m.capBudget = budget
	m.invalidate()
	if m.started {
		m.step()
	}
}

// PowerCap returns the current power-feed cap in watts (0 when
// uncapped).
func (m *Manager) PowerCap() float64 { return m.capWatts }

// enforcePowerCap drains the least-loaded serving hosts while the
// committed-on count exceeds the cap budget, reporting whether it
// marked anything. Unlike considerScaleDown it bypasses the
// shrink-persistence damper and the wake cooldown: a feed cap is a
// physical limit, not an optimization opportunity.
func (m *Manager) enforcePowerCap(forecasts []float64, c census) bool {
	if m.capBudget <= 0 {
		return false
	}
	keep := m.capBudget
	if keep < m.cfg.MinActive {
		keep = m.cfg.MinActive
	}
	over := len(c.serving) + len(c.waking) - keep
	if over <= 0 {
		return false
	}
	loads := m.hostForecastLoads(forecasts)
	cand := append([]*host.Host(nil), c.serving...)
	sort.Slice(cand, func(i, j int) bool {
		li, lj := loads[cand[i].ID()-1], loads[cand[j].ID()-1]
		if li != lj {
			return li < lj
		}
		return cand[i].ID() < cand[j].ID()
	})
	acted := false
	for _, h := range cand {
		if over <= 0 {
			break
		}
		if m.distrusted(h.ID()) || m.hostCmdPending(h.ID()) {
			continue
		}
		m.evacuating.add(h.ID())
		m.invalidate()
		m.counters.Inc(CtrCapEvacuations)
		acted = true
		over--
	}
	return acted
}

// considerScaleDown checks whether the packing frees at least one
// host, and acts once the opportunity has persisted for the
// latency-aware sleep delay.
func (m *Manager) considerScaleDown(forecasts []float64, c census) {
	hosts, k, ok := m.packServing(forecasts, c)
	keep := k + m.cfg.SpareHosts
	if keep < m.cfg.MinActive {
		keep = m.cfg.MinActive
	}
	if p := m.predictedDemand(); p > 0 && len(hosts) > 0 {
		avgCores := coresOf(hosts) / float64(len(hosts))
		needed := int(p/(m.cfg.TargetUtil*avgCores)) + 1
		if needed > keep {
			keep = needed
		}
	}
	if !ok || keep >= len(hosts) {
		m.shrinkOpen = false
		return
	}
	now := m.cl.Engine().Now()
	if !m.shrinkOpen {
		m.shrinkOpen = true
		m.shrinkSince = now
	}
	if now-m.shrinkSince < m.sleepDelay {
		return // opportunity must persist before we act
	}
	for _, h := range hosts[keep:] {
		// Recently woken hosts are immune: parking them right after a
		// surge faded is the definition of flapping. Quarantined hosts
		// are immune too — their transitions cannot be trusted.
		if at, ok := m.wokeAt[h.ID()]; ok && now-at < m.cfg.ParkCooldown {
			continue
		}
		if m.isQuarantined(h.ID()) {
			continue
		}
		if m.distrusted(h.ID()) || m.hostCmdPending(h.ID()) {
			continue
		}
		if !m.telemetryFresh(h.ID()) {
			// Freshness guard: never park a host whose telemetry is
			// older than the staleness limit — keep it on conservatively.
			m.counters.Inc(CtrStaleKeepOn)
			continue
		}
		m.evacuating.add(h.ID())
		m.invalidate()
	}
	m.shrinkOpen = false
}

// packServing orders serving hosts by forecast load (descending, so
// the keep-set is the loaded prefix and migrations are minimized) and
// returns the ordered hosts plus the minimal prefix length that packs
// all VMs. The whole result — sorted view, prefix, feasibility — is
// pure in the serving census, the forecasts, the placements, and the
// in-flight migration set, all tracked by (epoch, fcEpoch); on an
// exact key match the cached plan is returned without re-sorting or
// re-packing anything. Otherwise the search runs MinBins on the reused
// packer: the bins are the sorted hosts, and each item's home is its
// host's position among them.
func (m *Manager) packServing(forecasts []float64, c census) ([]*host.Host, int, bool) {
	if m.inc && m.planValid && m.planE == m.epoch && m.planF == m.fcEpoch {
		return m.planHosts, m.planK, m.planOK
	}
	items := m.buildItems(forecasts)
	m.growHostSlots()
	loads := m.sortLoads
	for i := range loads {
		loads[i] = 0
	}
	for _, v := range m.cl.VMs() {
		if m.cl.Migrating(v.ID()) {
			// Excluded from items too: a migrating VM's landing is
			// already decided.
			continue
		}
		if hid, ok := m.cl.Placement(v.ID()); ok {
			loads[hid-1] += forecasts[v.ID()-1]
		}
	}
	hosts := append(m.planHosts[:0], c.serving...)
	slices.SortFunc(hosts, func(a, b *host.Host) int {
		if c := cmp.Compare(loads[b.ID()-1], loads[a.ID()-1]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID(), b.ID())
	})
	m.buildBins(&m.planPk, hosts)
	for i, h := range hosts {
		m.binOf[h.ID()-1] = int32(i) + 1
	}
	home := m.planHome[:0]
	for i := range items {
		pos := int32(-1)
		if cur := items[i].Current; cur > 0 {
			pos = m.binOf[cur-1] - 1
		}
		home = append(home, pos)
	}
	m.planHome = home
	for _, h := range hosts {
		m.binOf[h.ID()-1] = 0
	}
	k, ok := m.planPk.minBins(items, home, m.cfg.Packing)
	m.planHosts = hosts
	m.planK = k
	m.planOK = ok
	m.planE = m.epoch
	m.planF = m.fcEpoch
	m.planValid = true
	return hosts, k, ok
}

// buildItems converts non-migrating VMs into packing items. Migrating
// VMs are skipped (their landing is already decided).
func (m *Manager) buildItems(forecasts []float64) []Item {
	items := m.items[:0]
	for _, v := range m.cl.VMs() {
		if m.cl.Migrating(v.ID()) {
			continue
		}
		cur := -1
		if hid, ok := m.cl.Placement(v.ID()); ok {
			cur = int(hid)
		}
		cpu := forecasts[v.ID()-1]
		if r := v.ReservedCores(); r > cpu {
			// A reservation is committed capacity whether or not the
			// VM is using it right now.
			cpu = r
		}
		items = append(items, Item{
			Key:     int(v.ID()),
			CPU:     cpu,
			MemGB:   v.MemoryGB(),
			Current: cur,
			Group:   v.Group(),
		})
	}
	m.items = items
	return items
}

// buildBins loads hosts into p as packing bins, in order: usable CPU
// (cores × target utilization) and memory net of the in-flight
// migrations landing on each host, whose anti-affinity groups the bin
// carries too. Inbound demand sums in VM-ID order, the order of the
// in-flight view.
func (m *Manager) buildBins(p *packer, hosts []*host.Host) {
	m.growHostSlots()
	bins := p.resetBins(len(hosts))
	inCPU, inMem := m.binInCPU[:len(hosts)], m.binInMem[:len(hosts)]
	clear(inCPU)
	clear(inMem)
	for i, h := range hosts {
		m.binOf[h.ID()-1] = int32(i) + 1
	}
	now := m.cl.Engine().Now()
	for _, mig := range m.cl.Migrations().Inflights() {
		b := m.binOf[mig.Dst-1] - 1
		if b < 0 {
			continue
		}
		if v, ok := m.cl.VM(mig.VM); ok {
			inCPU[b] += m.cl.VMDemand(v, now)
			inMem[b] += v.MemoryGB()
			if g := v.Group(); g != "" {
				bins[b].groups = append(bins[b].groups, g)
			}
		}
	}
	for i, h := range hosts {
		m.binOf[h.ID()-1] = 0
		st := &bins[i]
		st.key = int(h.ID())
		st.cpuCap = max(h.Cores()*m.cfg.TargetUtil-inCPU[i], 0)
		st.memCap = max(h.MemoryGB()-inMem[i], 0)
	}
}

// drainEvacuating moves VMs off hosts marked for evacuation and parks
// the ones that are empty. Destinations come from a packing of the
// evacuees into the residual capacity of the serving hosts, so drains
// succeed even when serving hosts sit near the packing target; if the
// evacuees genuinely do not fit, an evacuating host is reclaimed.
func (m *Manager) drainEvacuating() {
	if m.evacuating.len() == 0 {
		return
	}
	c := m.takeCensus()
	if !m.planDrain(m.forecasts(), c) {
		// Not enough room: reclaim the evacuating host with the most
		// VMs (cheapest to bring back to service) and retry next step.
		// Maintenance holds are operator decisions and stay.
		var reclaim *host.Host
		for _, h := range c.evacuating {
			if m.maintenance.has(h.ID()) {
				continue
			}
			if reclaim == nil || h.NumVMs() > reclaim.NumVMs() {
				reclaim = h
			}
		}
		if reclaim != nil {
			m.evacuating.remove(reclaim.ID())
			m.invalidate()
		}
		return
	}
	if m.cp == nil && len(m.migRetryAt) == 0 {
		m.startCandidates(c.evacuating)
	} else {
		m.startEach(c.evacuating)
	}
	m.parkDrained()
}

// parkDrained parks the evacuating hosts that have fully drained, in
// ascending ID order.
func (m *Manager) parkDrained() {
	m.parkIDs = m.evacuating.appendTo(m.parkIDs[:0])
	for _, id := range m.parkIDs {
		if m.maintenance.has(id) {
			// Drained maintenance hosts stay on and held, not parked.
			continue
		}
		h, ok := m.cl.Host(id)
		if !ok || !h.Available() || !h.Empty() {
			continue
		}
		if m.cl.Migrations().HostLoad(int(id)) > 0 {
			continue
		}
		if m.parkHeld(id) {
			// A failed suspend's backoff has not expired; hold the
			// re-park until it does.
			continue
		}
		if m.distrusted(id) || m.hostCmdPending(id) {
			continue
		}
		if m.cfg.Policy.PowerManage {
			// Over a control plane the park is only intent until its ack
			// lands: commandResult counts it and clears the evacuation.
			if err := m.sleepHost(id); err == nil && m.cp == nil {
				m.stats.Sleeps++
				m.evacuating.remove(id)
			}
		}
	}
}

// startCandidates starts the planned moves of a run without a control
// plane and without a VM on migration backoff, where every evacuee of
// a source is planned and eligible. A move is refused without a call
// when its source or destination has no free slot, and starts only
// take slots, so only the plan's start candidates — evacuees planned
// into a bin whose host had a free slot — can start. They are tried in
// the order the per-VM loop (startEach) visits evacuees, sources in
// census order and each source's segment in VM-ID order, and the
// loop's counts follow: a source with no free slot refuses its whole
// segment, one with a free slot refuses every evacuee it does not
// start, and once the per-step cap is reached the loop stops at the
// next evacuee, counting nothing more.
func (m *Manager) startCandidates(evacuating []*host.Host) {
	d := &m.drain
	migs := m.cl.Migrations()
	limit := m.cfg.MaxMigrationsPerStep
	migrated := 0
	for si, src := range evacuating {
		if limit > 0 && migrated >= limit {
			return
		}
		seg := m.segRows[src.ID()-1].items
		if !migs.HasSlot(int(src.ID())) {
			m.stats.MigrationsFailed += len(seg)
			continue
		}
		visited, starts := len(seg), 0
		for i, cand := range d.cand[d.segOff[si]:d.segOff[si+1]] {
			if !cand {
				continue
			}
			vid := vm.ID(seg[i].Key)
			dst, _ := d.dest(vid)
			if !migs.CanStart(int(src.ID()), int(dst)) || m.startMigration(vid, dst) != nil {
				continue
			}
			m.stats.MigrationsConsolidation++
			migrated++
			starts++
			if limit > 0 && migrated >= limit {
				visited = i + 1
				break
			}
		}
		m.stats.MigrationsFailed += visited - starts
	}
}

// startEach starts the planned moves evacuee by evacuee: sources in
// census order, each source's VMs in ascending ID order, skipping VMs
// already moving, on backoff or with an order in flight, and counting
// a refusal for each planned move that does not start, until the
// per-step cap is reached. Without a control plane a move whose
// endpoints have no free slot is counted without the call.
func (m *Manager) startEach(evacuating []*host.Host) {
	migrated := 0
	migs := m.cl.Migrations()
	for _, src := range evacuating {
		for _, vid := range src.VMs() {
			if m.cl.Migrating(vid) || m.migrationHeld(vid) || m.migCmdPending(vid) {
				continue
			}
			if m.cfg.MaxMigrationsPerStep > 0 && migrated >= m.cfg.MaxMigrationsPerStep {
				break
			}
			dst, planned := m.drain.dest(vid)
			if !planned {
				continue
			}
			if m.cp == nil && !migs.CanStart(int(src.ID()), int(dst)) {
				// StartMigration would refuse it with every slot of an
				// endpoint taken, having changed nothing: count the
				// refusal without the call. Over a control plane the
				// order still goes out, and the refusal comes back as a
				// nack.
				m.stats.MigrationsFailed++
				continue
			}
			if err := m.startMigration(vid, dst); err != nil {
				m.stats.MigrationsFailed++
				continue
			}
			m.stats.MigrationsConsolidation++
			migrated++
		}
	}
}

// planDrain packs the VMs sitting on evacuating hosts into the
// residual capacity of the serving hosts, leaving the plan in m.drain
// (see drainScratch.dest). Serving hosts' own VMs are pre-charged
// against their bins (they stay put), each host's in ascending VM-ID
// order; only evacuees are packing items, and none has a home bin.
// Both come from the hosts' planning rows (see rows.go), which
// recompute only the hosts that changed, and the rows' changes mark
// the live plan. A first-fit plan whose order still holds replays the
// previous pack (drainScratch.replay); any other runs the full pack,
// after a full sort when the order does not hold. It reports whether
// every evacuee found a destination.
func (m *Manager) planDrain(forecasts []float64, c census) bool {
	d := &m.drain
	m.growRows()
	hosts := m.trustedServing(c)
	m.buildBins(&d.pk, hosts)
	m.chargeResidents(forecasts, hosts)
	d.noteStart(m.cl.Migrations())
	reuse := m.refreshSegments(forecasts, c.evacuating)
	var ok bool
	switch {
	case reuse && d.planOK && m.cfg.Packing == PackFFD:
		d.replays++
		ok = d.replay()
	case reuse:
		d.planItems()
		ok = d.pk.pack(d.items, nil, m.cfg.Packing)
		d.record(ok)
	default:
		d.sorts++
		d.items, d.srcs = m.appendEvacuees(d.items[:0], d.srcs[:0], c.evacuating)
		d.pk.sortItems(d.items)
		ok = d.pk.pack(d.items, nil, m.cfg.Packing)
		d.record(ok)
	}
	if m.rowCheck {
		m.checkDrain(forecasts, hosts, c.evacuating)
	}
	return ok
}

// pickLBDestination picks the load-balancing target for one VM: the
// serving host that ends up coolest after the move, provided the move
// strictly improves balance (destination post-load below the source's
// current load — which also rules out ping-pong) and does not push the
// destination over its raw capacity. Unlike drain placement, no
// target-util slack is demanded: on a cluster hotter than the packing
// target, equalizing heat is still strictly better than leaving one
// host saturated.
func (m *Manager) pickLBDestination(vid vm.ID, src *host.Host, forecasts []float64, loads []float64, serving []*host.Host) *host.Host {
	v, ok := m.cl.VM(vid)
	if !ok {
		return nil
	}
	inboundMem := m.inboundMemory()
	f := forecasts[vid-1]
	var best *host.Host
	bestPost := 0.0
	for _, h := range serving {
		if h.ID() == src.ID() || m.distrusted(h.ID()) {
			continue
		}
		post := loads[h.ID()-1] + f
		if post >= loads[src.ID()-1] { // no strict improvement
			continue
		}
		if post > h.Cores() { // would overload the destination outright
			continue
		}
		if h.MemFreeGB()-inboundMem[h.ID()-1] < v.MemoryGB() {
			continue
		}
		if m.cl.GroupConflict(h.ID(), v.Group(), vid) {
			continue
		}
		if !m.cl.Migrations().CanStart(int(src.ID()), int(h.ID())) {
			continue
		}
		if best == nil || post < bestPost {
			best = h
			bestPost = post
		}
	}
	return best
}

// pickDestination finds the serving host with the most forecast slack
// that can take the VM (best-fit by slack keeps the packing tight
// without starving any host).
func (m *Manager) pickDestination(vid vm.ID, forecasts []float64, serving []*host.Host) *host.Host {
	v, ok := m.cl.VM(vid)
	if !ok {
		return nil
	}
	cur, _ := m.cl.Placement(vid)
	loads := m.hostForecastLoads(forecasts)
	inboundMem := m.inboundMemory()

	var best *host.Host
	bestSlack := 0.0
	for _, h := range serving {
		if h.ID() == cur || m.distrusted(h.ID()) {
			continue
		}
		slack := h.Cores()*m.cfg.TargetUtil - loads[h.ID()-1] - forecasts[vid-1]
		memFree := h.MemFreeGB() - inboundMem[h.ID()-1]
		if slack < 0 || memFree < v.MemoryGB() {
			continue
		}
		if m.cl.GroupConflict(h.ID(), v.Group(), vid) {
			continue
		}
		if !m.cl.Migrations().CanStart(int(cur), int(h.ID())) {
			continue
		}
		if best == nil || slack > bestSlack {
			best = h
			bestSlack = slack
		}
	}
	return best
}

// inboundMemory sums in-flight inbound migration memory per host
// (indexed host.ID-1; beyond what the host already reserves itself,
// this is used for planning against stale reads). Pure in the
// in-flight migration set, which only moves with the epoch.
func (m *Manager) inboundMemory() []float64 {
	if m.inc && m.inbOK && m.inbE == m.epoch {
		return m.inbound
	}
	m.growHostSlots()
	out := m.inbound
	for i := range out {
		out[i] = 0
	}
	for _, mig := range m.cl.Migrations().Inflights() {
		if v, ok := m.cl.VM(mig.VM); ok {
			out[mig.Dst-1] += v.MemoryGB()
		}
	}
	m.inbE = m.epoch
	m.inbOK = true
	return out
}

// balanceLoad is the base-DRM behaviour: offload hot hosts onto the
// coolest serving hosts.
func (m *Manager) balanceLoad() {
	c := m.takeCensus()
	if len(c.serving) < 2 {
		return
	}
	forecasts := m.forecasts()
	loads := m.hostForecastLoads(forecasts)
	for _, src := range c.serving {
		// Hot when forecast exceeds the LB threshold of raw capacity.
		// Suspect hosts are left alone: migrating off a host that may
		// have crashed only burns command retries.
		if m.distrusted(src.ID()) {
			continue
		}
		if loads[src.ID()-1] <= m.cfg.LBThreshold*src.Cores() {
			continue
		}
		if !m.cl.Migrations().HasSlot(int(src.ID())) {
			// Every move off src would be refused a slot, so every
			// pickLBDestination below would come back empty.
			continue
		}
		// Move smallest VMs first: cheapest moves that relieve
		// pressure with least disruption. src.VMs() is the host's own
		// cached view — copy into scratch before sorting by load.
		vids := append(m.lbVMs[:0], src.VMs()...)
		m.lbVMs = vids
		slices.SortFunc(vids, func(a, b vm.ID) int {
			if c := cmp.Compare(forecasts[a-1], forecasts[b-1]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for _, vid := range vids {
			if loads[src.ID()-1] <= m.cfg.TargetUtil*src.Cores() {
				break
			}
			if m.cl.Migrating(vid) || forecasts[vid-1] <= 0 || m.migrationHeld(vid) || m.migCmdPending(vid) {
				continue
			}
			dst := m.pickLBDestination(vid, src, forecasts, loads, c.serving)
			if dst == nil {
				continue
			}
			if err := m.startMigration(vid, dst.ID()); err != nil {
				m.stats.MigrationsFailed++
				continue
			}
			// startMigration moved the epoch (the cluster's dirty feed
			// on the direct path, an explicit bump on the async path),
			// so this in-phase rebalance of the cached vector matches
			// the eager path and is discarded at the next cache read.
			m.stats.MigrationsLB++
			loads[src.ID()-1] -= forecasts[vid-1]
			loads[dst.ID()-1] += forecasts[vid-1]
		}
	}
}
