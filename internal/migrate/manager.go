package migrate

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// Manager errors. Start returns them unwrapped: a rejected request
// formats nothing, because a draining manager issues hundreds of
// requests that are refused for every one that starts.
var (
	// ErrHostSaturated — starting the migration would exceed a host's
	// concurrent-migration limit.
	ErrHostSaturated = errors.New("migrate: host at concurrent migration limit")
	// ErrAlreadyMigrating — the VM is already in flight.
	ErrAlreadyMigrating = errors.New("migrate: vm already migrating")
	// ErrSamePlace — source equals destination.
	ErrSamePlace = errors.New("migrate: source and destination are the same host")
	// ErrNegativeID — a VM or host ID is negative. IDs index the
	// manager's dense per-VM and per-host state.
	ErrNegativeID = errors.New("migrate: negative vm or host id")
	// ErrNonPositiveMemory — Model.Plan was asked to move a VM with no
	// memory.
	ErrNonPositiveMemory = errors.New("migrate: memory must be positive")
)

// Fault is one injected defect on a migration. Stall lengthens the
// pre-copy (network congestion, dirty-page churn); Fail makes the
// final switchover abort after the full (stalled) duration — the VM
// stays on its source and the caller re-plans.
type Fault struct {
	Fail  bool
	Stall time.Duration
}

// FaultInjector decides faults for migrations. Nil (the default) is
// fully dormant. Injectors must be deterministic functions of their own
// seeded stream so simulations stay reproducible.
type FaultInjector interface {
	MigrationFault(memGB float64) Fault
}

// Migration is one in-flight (or completed) VM move. Hosts are
// identified by non-negative ints supplied by the caller (the cluster
// layer's host IDs); they index the manager's per-host slot counts.
type Migration struct {
	VM       vm.ID
	Src, Dst int
	Start    sim.Time
	End      sim.Time
	Plan     Plan
	// Failed marks a migration whose switchover aborts (injected fault
	// or a crash of an endpoint host): the VM never leaves its source.
	Failed bool

	// ev is the scheduled completion, kept so an endpoint crash can
	// abort the move early.
	ev *sim.Event
}

// Stats are cumulative manager counters.
type Stats struct {
	Started   int
	Completed int
	TrafficGB float64
	// TotalDowntime is the sum of stop-and-copy pauses across all
	// completed migrations — direct SLA impact of management actions.
	TotalDowntime time.Duration
	// TotalDuration is the sum of wall durations of completed moves.
	TotalDuration time.Duration
	// Aborted counts migrations that ran and then failed (injected
	// switchover faults and endpoint crashes), distinct from requests
	// rejected at Start.
	Aborted int
	// Stalled counts migrations that were slowed by injected stalls;
	// StallTime is the total extra pre-copy time.
	Stalled   int
	StallTime time.Duration
}

// Manager tracks in-flight migrations, enforces per-host concurrency
// limits, and fires a completion callback through the simulation
// engine when each move finishes.
type Manager struct {
	eng   *sim.Engine
	model Model
	// perHostLimit caps concurrent migrations touching one host
	// (inbound plus outbound), as real hypervisors do.
	perHostLimit int

	// inflight lists the migrations in flight in ascending VM ID order,
	// kept sorted on insert and remove; byVM indexes them by VM ID (nil
	// when the VM is not migrating) and perHost counts the migrations
	// touching each host. Both dense slices grow on demand, so lookups
	// neither hash nor allocate.
	inflight []*Migration
	byVM     []*Migration
	perHost  []int
	stats    Stats

	// faults, when non-nil, is consulted on every admitted migration.
	faults FaultInjector

	onComplete func(*Migration)
	onFailed   func(*Migration)
}

// NewManager builds a manager. perHostLimit ≤ 0 selects the default
// of 4 concurrent migrations per host (the order of what enterprise
// hypervisors allow on a 10 GbE migration network).
func NewManager(eng *sim.Engine, model Model, perHostLimit int) (*Manager, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if perHostLimit <= 0 {
		perHostLimit = 4
	}
	return &Manager{
		eng:          eng,
		model:        model,
		perHostLimit: perHostLimit,
	}, nil
}

// Model returns the manager's migration model.
func (m *Manager) Model() Model { return m.model }

// OnComplete registers fn to run when any migration completes.
func (m *Manager) OnComplete(fn func(*Migration)) { m.onComplete = fn }

// OnFailed registers fn to run when any migration aborts. The VM is
// still on its source host; the caller releases whatever it reserved
// at the destination.
func (m *Manager) OnFailed(fn func(*Migration)) { m.onFailed = fn }

// SetFaultInjector installs a migration fault injector (nil disables
// injection entirely — the default).
func (m *Manager) SetFaultInjector(f FaultInjector) { m.faults = f }

// Inflight returns the number of migrations currently in flight.
func (m *Manager) Inflight() int { return len(m.inflight) }

// Migrating reports whether the VM is currently in flight.
func (m *Manager) Migrating(id vm.ID) bool {
	_, ok := m.Get(id)
	return ok
}

// Get returns the VM's in-flight migration, if any.
func (m *Manager) Get(id vm.ID) (*Migration, bool) {
	if id < 0 || int(id) >= len(m.byVM) || m.byVM[id] == nil {
		return nil, false
	}
	return m.byVM[id], true
}

// HostLoad returns how many in-flight migrations touch host h.
func (m *Manager) HostLoad(h int) int {
	if h < 0 || h >= len(m.perHost) {
		return 0
	}
	return m.perHost[h]
}

// Inflights returns the in-flight migrations ordered by VM ID, for
// deterministic planning by the management layer. The slice is the
// manager's own sorted list, not a copy: it is a read-only view that
// the next Start, completion or abort invalidates. Callers must not
// modify it, and must not hold it across any call that can start or
// finish a migration — copy it first, as FailHost does.
func (m *Manager) Inflights() []*Migration { return m.inflight }

// HasSlot reports whether host h can take part in one more migration.
func (m *Manager) HasSlot(h int) bool { return m.HostLoad(h) < m.perHostLimit }

// CanStart reports whether a src→dst migration would be admitted.
func (m *Manager) CanStart(src, dst int) bool {
	return src != dst && m.HasSlot(src) && m.HasSlot(dst)
}

// Start begins migrating the VM with the given memory footprint from
// src to dst. The returned Migration completes (callback fires) after
// the planned duration. A rejection returns one of the package's
// sentinel errors as is.
func (m *Manager) Start(id vm.ID, src, dst int, memGB float64) (*Migration, error) {
	if id < 0 || src < 0 || dst < 0 {
		return nil, ErrNegativeID
	}
	if src == dst {
		return nil, ErrSamePlace
	}
	if m.Migrating(id) {
		return nil, ErrAlreadyMigrating
	}
	if m.HostLoad(src) >= m.perHostLimit || m.HostLoad(dst) >= m.perHostLimit {
		return nil, ErrHostSaturated
	}
	plan, err := m.model.Plan(memGB)
	if err != nil {
		return nil, err
	}
	duration := plan.Duration
	failed := false
	if m.faults != nil {
		f := m.faults.MigrationFault(memGB)
		if f.Stall > 0 {
			duration += f.Stall
			m.stats.Stalled++
			m.stats.StallTime += f.Stall
		}
		failed = f.Fail
	}
	mig := &Migration{
		VM:     id,
		Src:    src,
		Dst:    dst,
		Start:  m.eng.Now(),
		End:    m.eng.Now() + duration,
		Plan:   plan,
		Failed: failed,
	}
	m.insert(mig)
	m.stats.Started++
	mig.ev = m.eng.Schedule(mig.End, func() { m.complete(mig) })
	return mig, nil
}

// FailHost aborts every in-flight migration touching host h (which
// crashed): their completion events are cancelled and each fires the
// failure path immediately. It returns how many were aborted. It walks
// a copy of the in-flight list: each abort shrinks the list, and the
// failure callbacks may start new migrations.
func (m *Manager) FailHost(h int) int {
	aborted := 0
	for _, mig := range append([]*Migration(nil), m.inflight...) {
		if mig.Src != h && mig.Dst != h {
			continue
		}
		mig.ev.Cancel()
		mig.Failed = true
		mig.End = m.eng.Now()
		m.complete(mig)
		aborted++
	}
	return aborted
}

// insert adds mig to the in-flight list at its VM ID's sorted position
// and charges a slot on both hosts.
func (m *Manager) insert(mig *Migration) {
	i, _ := slices.BinarySearchFunc(m.inflight, mig.VM, cmpVM)
	m.inflight = slices.Insert(m.inflight, i, mig)
	if n := int(mig.VM) + 1; n > len(m.byVM) {
		m.byVM = append(m.byVM, make([]*Migration, n-len(m.byVM))...)
	}
	m.byVM[mig.VM] = mig
	if n := max(mig.Src, mig.Dst) + 1; n > len(m.perHost) {
		m.perHost = append(m.perHost, make([]int, n-len(m.perHost))...)
	}
	m.perHost[mig.Src]++
	m.perHost[mig.Dst]++
}

// cmpVM orders the in-flight list by VM ID.
func cmpVM(mig *Migration, id vm.ID) int { return cmp.Compare(mig.VM, id) }

// remove drops mig from the in-flight list and frees its slots.
func (m *Manager) remove(mig *Migration) {
	if i, ok := slices.BinarySearchFunc(m.inflight, mig.VM, cmpVM); ok {
		m.inflight = slices.Delete(m.inflight, i, i+1)
	}
	m.byVM[mig.VM] = nil
	m.perHost[mig.Src]--
	m.perHost[mig.Dst]--
}

func (m *Manager) complete(mig *Migration) {
	m.remove(mig)
	if mig.Failed {
		// The pre-copy traffic was spent even though the move aborted.
		m.stats.Aborted++
		m.stats.TrafficGB += mig.Plan.TrafficGB
		if m.onFailed != nil {
			m.onFailed(mig)
		}
		return
	}
	m.stats.Completed++
	m.stats.TrafficGB += mig.Plan.TrafficGB
	m.stats.TotalDowntime += mig.Plan.Downtime
	m.stats.TotalDuration += mig.Plan.Duration
	if m.onComplete != nil {
		m.onComplete(mig)
	}
}

// Stats returns a snapshot of cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// CPUOverhead returns the extra cores consumed on host h right now by
// in-flight migrations.
func (m *Manager) CPUOverhead(h int) float64 {
	return float64(m.HostLoad(h)) * m.model.CPUOverheadCores
}
