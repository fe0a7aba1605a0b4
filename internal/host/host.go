// Package host models a physical virtualization host: its CPU and
// memory capacity, the VMs placed on it, a work-conserving
// proportional-share CPU scheduler that decides how much of each VM's
// demand is actually delivered, and the platform power state machine
// from internal/power.
package host

import (
	"errors"
	"fmt"
	"sort"

	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// ID identifies a host within a cluster.
type ID int

// Reservation rejections. Reserve returns them as is, so a refused
// inbound migration formats nothing.
var (
	// ErrAlreadyReserved — the VM already holds a reservation here.
	ErrAlreadyReserved = errors.New("host: vm already reserved")
	// ErrNoMemory — the host has too little free memory for the VM.
	ErrNoMemory = errors.New("host: no memory to reserve")
)

// Config describes a host to create.
type Config struct {
	Name string
	// Cores is CPU capacity in cores.
	Cores float64
	// MemoryGB is RAM capacity.
	MemoryGB float64
	// Profile is the power calibration; nil selects
	// power.DefaultProfile.
	Profile *power.Profile
}

// reservation is one inbound migration memory hold.
type reservation struct {
	id    vm.ID
	memGB float64
}

// Host is one physical server.
type Host struct {
	id      ID
	name    string
	cores   float64
	memGB   float64
	machine *power.Machine

	// freq is the DVFS operating point: effective capacity is
	// freq × cores.
	freq float64

	// onChange, when non-nil, runs after any change to the host's
	// scheduling inputs made directly on the host rather than through
	// the cluster (today: a DVFS frequency move). Delta evaluation
	// installs it to mark the host dirty.
	onChange func()

	// listener is the closure-free observer: one shared value (the
	// cluster) serves the whole fleet, tagged with this host's ID, so
	// binding callbacks during AddHost or a fleet fork allocates
	// nothing. See SetListener.
	listener Listener

	// res holds resident VMs in ascending ID order — the one canonical
	// iteration order for every scheduler and accounting loop, so
	// floating-point sums never depend on map iteration order. resIDs
	// is the parallel ID view handed out by VMs.
	res    []*vm.VM
	resIDs []vm.ID

	memUsed float64
	// resv holds inbound migration memory reservations in ascending VM
	// ID order (summation order is part of the determinism contract).
	resv []reservation
	// cpuReserved sums resident VMs' guaranteed CPU minimums; new
	// placements are admitted only while it fits capacity.
	cpuReserved float64

	// Scheduler scratch: one reusable Allocation plus working buffers,
	// all sized to the resident count, so the per-tick evaluate path
	// performs zero heap allocations once the buffers have grown to
	// the host's population high-water mark.
	alloc    Allocation
	demands  []float64
	clean    []float64
	resWant  []float64
	granted  []float64
	residual []float64
	unsat    []bool
}

// New validates cfg and builds a host attached to the engine.
func New(eng *sim.Engine, id ID, cfg Config) (*Host, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("host %q: cores %v must be positive", cfg.Name, cfg.Cores)
	}
	if cfg.MemoryGB <= 0 {
		return nil, fmt.Errorf("host %q: memory %v GB must be positive", cfg.Name, cfg.MemoryGB)
	}
	profile := cfg.Profile
	if profile == nil {
		profile = power.DefaultProfile()
	}
	machine, err := power.NewMachine(eng, profile)
	if err != nil {
		return nil, fmt.Errorf("host %q: %w", cfg.Name, err)
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("host-%d", id)
	}
	return &Host{
		id:      id,
		name:    name,
		cores:   cfg.Cores,
		memGB:   cfg.MemoryGB,
		freq:    1,
		machine: machine,
	}, nil
}

// CloneFleet copies a pre-Start fleet into hosts attached to eng, in
// three arena allocations (hosts, power machines, resident views)
// instead of per-host allocation loops — the bulk of the snapshot/fork
// layer's setup saving at fleet scale. Resident *vm.VM pointers are
// shared: VMs are immutable after creation, so clones alias them
// freely. The resident slices are capacity-clipped into the arena, so
// a later Place on either side copies-on-grow rather than overwriting
// a sibling's window. Scheduler scratch, callbacks and fault injectors
// are not carried over (the owning cluster re-registers them); a host
// with inbound migration reservations or a transition in flight cannot
// be cloned.
func CloneFleet(eng *sim.Engine, src []*Host) ([]*Host, error) {
	hosts := make([]Host, len(src))
	machines := make([]power.Machine, len(src))
	out := make([]*Host, len(src))
	total := 0
	for _, s := range src {
		total += len(s.res)
	}
	resArena := make([]*vm.VM, total)
	idArena := make([]vm.ID, total)
	off := 0
	for i, s := range src {
		if len(s.resv) != 0 {
			return nil, fmt.Errorf("host %s: cannot clone with inbound reservations", s.name)
		}
		if err := s.machine.CloneInto(&machines[i], eng); err != nil {
			return nil, fmt.Errorf("host %s: %w", s.name, err)
		}
		h := &hosts[i]
		h.id = s.id
		h.name = s.name
		h.cores = s.cores
		h.memGB = s.memGB
		h.machine = &machines[i]
		h.freq = s.freq
		h.memUsed = s.memUsed
		h.cpuReserved = s.cpuReserved
		k := len(s.res)
		h.res = resArena[off : off+k : off+k]
		h.resIDs = idArena[off : off+k : off+k]
		copy(h.res, s.res)
		copy(h.resIDs, s.resIDs)
		off += k
		out[i] = h
	}
	return out, nil
}

// ID returns the host identifier.
func (h *Host) ID() ID { return h.id }

// Name returns the host's display name.
func (h *Host) Name() string { return h.name }

// Cores returns CPU capacity.
func (h *Host) Cores() float64 { return h.cores }

// MemoryGB returns RAM capacity.
func (h *Host) MemoryGB() float64 { return h.memGB }

// Machine returns the power state machine.
func (h *Host) Machine() *power.Machine { return h.machine }

// SetFaultInjector installs a power-transition fault injector on the
// host's machine (nil disables injection — the default).
func (h *Host) SetFaultInjector(f power.FaultInjector) { h.machine.SetFaultInjector(f) }

// Available reports whether the host can serve VMs right now.
func (h *Host) Available() bool { return h.machine.Available() }

// Frequency returns the DVFS operating point.
func (h *Host) Frequency() float64 { return h.freq }

// SetFrequency changes the DVFS operating point: effective CPU
// capacity becomes f × cores and the power machine's dynamic power
// scales accordingly.
func (h *Host) SetFrequency(f float64) error {
	if err := h.machine.SetFrequency(f); err != nil {
		return err
	}
	changed := f != h.freq
	h.freq = f
	if changed {
		if h.onChange != nil {
			h.onChange()
		}
		if h.listener != nil {
			h.listener.HostChanged(h.id)
		}
	}
	return nil
}

// OnChange registers fn to run after any host-local change to the
// scheduling inputs (see the onChange field). One observer only.
func (h *Host) OnChange(fn func()) { h.onChange = fn }

// Listener receives host-identity-tagged notifications: local changes
// to scheduling inputs (the OnChange events) and completed power
// transitions (the machine's OnSettled events). It is the
// allocation-free alternative to per-host closures — a pointer
// converts to this interface without heap allocation, so one listener
// (the owning cluster) binds to an entire fleet for free.
type Listener interface {
	HostChanged(id ID)
	HostSettled(id ID, st power.State)
}

// SetListener registers l as the host's observer and wires the power
// machine's settle notifications through it. One listener only.
func (h *Host) SetListener(l Listener) {
	h.listener = l
	h.machine.OnSettledListener(h)
}

// MachineSettled relays the power machine's completed transition to
// the listener, tagged with this host's identity. It implements
// power.SettleListener; callers never invoke it directly.
func (h *Host) MachineSettled(st power.State) {
	if h.listener != nil {
		h.listener.HostSettled(h.id, st)
	}
}

// EffectiveCores returns capacity at the current frequency.
func (h *Host) EffectiveCores() float64 { return h.freq * h.cores }

// VMs returns the IDs of placed VMs in ascending order (deterministic
// iteration for reproducible simulations). The slice is a cached view
// owned by the host — callers must not mutate or retain it across
// Place/Remove.
func (h *Host) VMs() []vm.ID { return h.resIDs }

// Residents returns the placed VMs in ascending ID order, parallel to
// VMs. Like VMs, the slice is a cached read-only view.
func (h *Host) Residents() []*vm.VM { return h.res }

// NumVMs returns the count of placed VMs.
func (h *Host) NumVMs() int { return len(h.res) }

// Empty reports whether the host has no VMs and no inbound
// reservations — the precondition for parking it.
func (h *Host) Empty() bool { return len(h.res) == 0 && len(h.resv) == 0 }

// MemUsedGB returns committed memory including inbound reservations.
func (h *Host) MemUsedGB() float64 {
	total := h.memUsed
	// Reservations are kept in ascending VM-ID order: the float sum
	// below must be identical from call to call.
	for _, r := range h.resv {
		total += r.memGB
	}
	return total
}

// CPUReservedCores returns the sum of resident VMs' guaranteed CPU.
func (h *Host) CPUReservedCores() float64 { return h.cpuReserved }

// MemFreeGB returns uncommitted memory.
func (h *Host) MemFreeGB() float64 { return h.memGB - h.MemUsedGB() }

// CanFit reports whether a VM with memGB of memory fits.
func (h *Host) CanFit(memGB float64) bool { return memGB <= h.MemFreeGB() }

// residentIndex returns the position of id in the sorted resident
// slice and whether it is present.
func (h *Host) residentIndex(id vm.ID) (int, bool) {
	i := sort.Search(len(h.res), func(i int) bool { return h.res[i].ID() >= id })
	return i, i < len(h.res) && h.res[i].ID() == id
}

// Place puts the VM on this host. Memory and CPU reservations are
// strictly admission controlled; CPU beyond reservations may be
// oversubscribed (the scheduler then shares it by weight).
func (h *Host) Place(v *vm.VM) error {
	i, ok := h.residentIndex(v.ID())
	if ok {
		return fmt.Errorf("host %s: vm %s already placed", h.name, v.Name())
	}
	if !h.CanFit(v.MemoryGB()) {
		return fmt.Errorf("host %s: no memory for vm %s (%v GB free, %v GB needed)",
			h.name, v.Name(), h.MemFreeGB(), v.MemoryGB())
	}
	if h.cpuReserved+v.ReservedCores() > h.cores+1e-9 {
		return fmt.Errorf("host %s: cpu reservations exhausted for vm %s (%v reserved of %v cores, %v needed)",
			h.name, v.Name(), h.cpuReserved, h.cores, v.ReservedCores())
	}
	h.res = append(h.res, nil)
	copy(h.res[i+1:], h.res[i:])
	h.res[i] = v
	h.resIDs = append(h.resIDs, 0)
	copy(h.resIDs[i+1:], h.resIDs[i:])
	h.resIDs[i] = v.ID()
	h.memUsed += v.MemoryGB()
	h.cpuReserved += v.ReservedCores()
	return nil
}

// Remove takes the VM off this host.
func (h *Host) Remove(id vm.ID) error {
	i, ok := h.residentIndex(id)
	if !ok {
		return fmt.Errorf("host %s: vm %d not placed here", h.name, id)
	}
	v := h.res[i]
	copy(h.res[i:], h.res[i+1:])
	h.res[len(h.res)-1] = nil
	h.res = h.res[:len(h.res)-1]
	copy(h.resIDs[i:], h.resIDs[i+1:])
	h.resIDs = h.resIDs[:len(h.resIDs)-1]
	h.memUsed -= v.MemoryGB()
	h.cpuReserved -= v.ReservedCores()
	return nil
}

// Get returns a placed VM.
func (h *Host) Get(id vm.ID) (*vm.VM, bool) {
	i, ok := h.residentIndex(id)
	if !ok {
		return nil, false
	}
	return h.res[i], true
}

// Reserve holds memory for an inbound migration of the VM. The
// reservation converts to a placement via Place after
// ReleaseReservation, or is dropped if the migration is abandoned.
func (h *Host) Reserve(id vm.ID, memGB float64) error {
	i := sort.Search(len(h.resv), func(i int) bool { return h.resv[i].id >= id })
	if i < len(h.resv) && h.resv[i].id == id {
		return ErrAlreadyReserved
	}
	if !h.CanFit(memGB) {
		return ErrNoMemory
	}
	h.resv = append(h.resv, reservation{})
	copy(h.resv[i+1:], h.resv[i:])
	h.resv[i] = reservation{id: id, memGB: memGB}
	return nil
}

// ReleaseReservation drops an inbound reservation.
func (h *Host) ReleaseReservation(id vm.ID) {
	i := sort.Search(len(h.resv), func(i int) bool { return h.resv[i].id >= id })
	if i < len(h.resv) && h.resv[i].id == id {
		h.resv = append(h.resv[:i], h.resv[i+1:]...)
	}
}

// Allocation is the scheduler's verdict for one interval. It is owned
// by the host and reused across Schedule calls: read it before the
// next Schedule on the same host.
type Allocation struct {
	ids       []vm.ID // aliases the host's resident view, ascending
	delivered []float64
	// TotalDemand is the sum of VM demands.
	TotalDemand float64
	// TotalDelivered is the sum of delivered cores.
	TotalDelivered float64
	// Utilization is busy cores (delivered + overhead) over capacity,
	// in [0,1].
	Utilization float64
}

// Len returns the number of VMs covered by the allocation.
func (a *Allocation) Len() int { return len(a.ids) }

// DeliveredAt returns the cores delivered to the i-th VM in the
// host's VMs/Residents order.
func (a *Allocation) DeliveredAt(i int) float64 { return a.delivered[i] }

// Delivered returns the cores delivered to the VM, or 0 when the VM
// was not part of the scheduled set.
func (a *Allocation) Delivered(id vm.ID) float64 {
	i := sort.Search(len(a.ids), func(i int) bool { return a.ids[i] >= id })
	if i < len(a.ids) && a.ids[i] == id {
		return a.delivered[i]
	}
	return 0
}

// growFloats returns s resized to n, reusing its backing array and
// zeroing the active window.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// DemandScratch returns a reusable buffer with one slot per resident
// VM, parallel to VMs/Residents order, for callers to fill with
// demands before Schedule. The buffer is owned by the host.
func (h *Host) DemandScratch() []float64 {
	h.demands = growFloats(h.demands, len(h.res))
	return h.demands
}

// Schedule runs the weighted proportional-share scheduler: given each
// placed VM's demand (demands[i] belongs to Residents()[i]; ascending
// VM-ID order) and an additional overhead (cores consumed by in-flight
// migrations), it computes what each VM receives. The scheduler is
// work-conserving: if total demand plus overhead fits, everyone gets
// what they asked; otherwise capacity is divided in proportion to
// demand × shares, water-filling so that no VM receives more than its
// demand (hypervisor-style resource shares; with equal shares this
// reduces to plain demand-proportional scaling). Overhead is served
// first, as hypervisor management traffic effectively preempts guest
// CPU.
//
// If the host is not available (asleep or transitioning), every VM
// receives zero.
//
// The returned Allocation is scratch owned by the host, valid until
// the next Schedule call; demands is not mutated.
func (h *Host) Schedule(demands []float64, overheadCores float64) *Allocation {
	n := len(h.res)
	if len(demands) != n {
		panic(fmt.Sprintf("host %s: Schedule with %d demands for %d residents", h.name, len(demands), n))
	}
	alloc := &h.alloc
	alloc.ids = h.resIDs
	alloc.delivered = growFloats(alloc.delivered, n)
	alloc.TotalDemand, alloc.TotalDelivered, alloc.Utilization = 0, 0, 0
	// All iteration is in ascending VM-ID order (the resident order):
	// floating-point sums must not depend on caller-visible ordering
	// choices, or identical runs diverge by ULPs.
	h.clean = growFloats(h.clean, n)
	clean := h.clean
	for i := 0; i < n; i++ {
		d := demands[i]
		if d < 0 {
			d = 0
		}
		clean[i] = d
		alloc.TotalDemand += d
	}
	if !h.Available() {
		return alloc
	}
	capacity := h.freq * h.cores
	if overheadCores < 0 {
		overheadCores = 0
	}
	if overheadCores > capacity {
		overheadCores = capacity
	}
	available := capacity - overheadCores

	if alloc.TotalDemand <= available {
		// Undersubscribed: everyone gets their ask.
		for i := 0; i < n; i++ {
			d := clean[i]
			alloc.delivered[i] = d
			alloc.TotalDelivered += d
		}
	} else {
		// Phase 0: honour reservations — each VM is guaranteed
		// min(demand, reservation) before shares divide the rest. If
		// migration overhead squeezed capacity below the sum of
		// reservations, they scale down proportionally.
		h.resWant = growFloats(h.resWant, n)
		resWant := h.resWant
		totalRes := 0.0
		for i := 0; i < n; i++ {
			d := clean[i]
			r := h.res[i].ReservedCores()
			if r > d {
				r = d
			}
			resWant[i] = r
			totalRes += r
		}
		resScale := 1.0
		if totalRes > available && totalRes > 0 {
			resScale = available / totalRes
		}
		h.granted = growFloats(h.granted, n)
		granted := h.granted
		remainingAfterRes := available
		for i := 0; i < n; i++ {
			g := resWant[i] * resScale
			granted[i] = g
			remainingAfterRes -= g
		}
		// Phase 1+: water-fill the residual demands by shares.
		h.residual = growFloats(h.residual, n)
		residual := h.residual
		for i := 0; i < n; i++ {
			residual[i] = clean[i] - granted[i]
		}
		h.fillByShares(residual, remainingAfterRes, granted)
		for i := 0; i < n; i++ {
			alloc.delivered[i] = granted[i]
			alloc.TotalDelivered += granted[i]
		}
	}

	// Utilization is the busy fraction of *full-speed* capacity: the
	// power machine scales the dynamic portion by frequency itself.
	busy := alloc.TotalDelivered + overheadCores
	alloc.Utilization = busy / h.cores
	if alloc.Utilization > 1 {
		alloc.Utilization = 1
	}
	return alloc
}

// fillByShares water-fills `remaining` capacity over residual demands
// in proportion to demand × shares, capping each VM at its residual
// and redistributing surplus. Results accumulate into granted. All
// slices are indexed in resident (ascending VM-ID) order so the
// arithmetic is deterministic.
func (h *Host) fillByShares(residual []float64, remaining float64, granted []float64) {
	n := len(residual)
	if cap(h.unsat) < n {
		h.unsat = make([]bool, n)
	}
	h.unsat = h.unsat[:n]
	unsat := h.unsat
	live := 0
	for i := 0; i < n; i++ {
		unsat[i] = residual[i] > 1e-12
		if unsat[i] {
			live++
		}
	}
	for live > 0 && remaining > 1e-12 {
		totalW := 0.0
		for i := 0; i < n; i++ {
			if unsat[i] {
				totalW += residual[i] * float64(h.res[i].Shares())
			}
		}
		if totalW <= 0 {
			break
		}
		capped := false
		for i := 0; i < n; i++ {
			if !unsat[i] {
				continue
			}
			w := residual[i] * float64(h.res[i].Shares())
			slice := remaining * w / totalW
			if slice >= residual[i] {
				granted[i] += residual[i]
				remaining -= residual[i]
				residual[i] = 0
				unsat[i] = false
				live--
				capped = true
			}
		}
		if capped {
			continue
		}
		for i := 0; i < n; i++ {
			if !unsat[i] {
				continue
			}
			w := residual[i] * float64(h.res[i].Shares())
			granted[i] += remaining * w / totalW
			unsat[i] = false
			live--
		}
		remaining = 0
	}
}

// String implements fmt.Stringer.
func (h *Host) String() string {
	return fmt.Sprintf("%s(%gc,%gGB,%v,%d vms)", h.name, h.cores, h.memGB, h.machine.State(), len(h.res))
}
