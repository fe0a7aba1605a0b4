// Per-host planning rows: the replan and the control step recompute
// only the hosts that changed since they last ran.
//
// Three consumers read per-host values built from a host's own VMs:
//
//   - loads: hostForecastLoads' per-host forecast load (residents that
//     are not migrating away, plus the VMs migrating in);
//   - bins: planDrain's bin start state, the serving host's capacity
//     after its in-flight arrivals and its own VMs are charged;
//   - segments: planDrain's evacuee items, one segment per evacuating
//     host.
//
// Each host has one row per consumer, and each row has its own clean
// flag. A row is only ever refreshed by recomputing its one host in
// ascending VM-ID order, the order the whole-fleet pass charged it in,
// and never delta-updated, so every float is bit-identical to the
// whole-fleet pass. Three signals turn rows stale:
//
//   - the cluster's dirty feed (Cluster.OnHostDirty) for its host: it
//     fires on every placement, migration start, finish and abort,
//     departure, crash and power change;
//   - a VM's forecast change (setForecast), for the VM's placement host
//     and its in-flight destination;
//   - a migration order sent over a control plane (startMigration),
//     for both endpoints: the cluster cannot see it yet, but
//     balanceLoad edits the load vector in place right after it.
//
// A bin row also depends on the demand of the VMs migrating in, which
// moves with time, so it is reused only while clean and while its
// host's in-flight CPU, memory and group list are bitwise what it was
// computed from. The full-scan oracle manager refreshes every row on
// every call. Marks are dropped until some consumer has run, so a
// manager that never plans (the static policy) pays nothing for them.
//
// CheckPlanningRowsForAll makes managers hold every row-backed value to
// the whole-fleet pass at each use; the parity tests and the faulted
// experiments' goldens run under it.

package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"agilepower/internal/host"
	"agilepower/internal/vm"
)

// binRow is one serving host's drain-bin start state and the inbound
// in-flight demand it was computed from.
type binRow struct {
	clean          bool
	inCPU, inMem   float64
	inGroups       []string
	cpuCap, memCap float64
	groups         []string
}

// segRow is one evacuating host's evacuee items, in VM-ID order.
type segRow struct {
	clean bool
	items []Item
}

// growRows sizes the per-host rows on first use; from then on marks
// are kept.
func (m *Manager) growRows() {
	n := len(m.cl.Hosts())
	if len(m.binRows) >= n {
		return
	}
	m.growHostSlots()
	m.loadClean = make([]bool, n)
	m.binRows = make([]binRow, n)
	m.segRows = make([]segRow, n)
	m.inHead = make([]int32, n)
	m.staleLoads()
}

// staleLoads turns every load row stale.
func (m *Manager) staleLoads() {
	m.loadStale = m.loadStale[:0]
	for i := range m.loadClean {
		m.loadClean[i] = false
		m.loadStale = append(m.loadStale, int32(i))
	}
}

// markHost turns every row of host id stale.
func (m *Manager) markHost(id host.ID) {
	i := int(id) - 1
	if i < 0 || i >= len(m.binRows) {
		return
	}
	if m.loadClean[i] {
		m.loadClean[i] = false
		m.loadStale = append(m.loadStale, int32(i))
	}
	m.binRows[i].clean = false
	m.segRows[i].clean = false
}

// setForecast records VM id's clamped forecast. A change moves the
// forecast generation and turns stale the rows that charge the VM: its
// placement host's and its in-flight destination's.
func (m *Manager) setForecast(id vm.ID, fc float64) {
	if fc != m.fcv[id-1] {
		m.fcv[id-1] = fc
		m.fcEpoch++
		if len(m.binRows) > 0 {
			m.markVM(id)
		}
	}
}

// markVM turns stale the rows that charge VM id.
func (m *Manager) markVM(id vm.ID) {
	if hid, ok := m.cl.Placement(id); ok {
		m.markHost(hid)
	}
	if mig, ok := m.cl.Migrations().Get(id); ok {
		m.markHost(host.ID(mig.Dst))
	}
}

// hostForecastLoads sums forecast demand per host (indexed host.ID-1),
// charging in-flight migrations to their destinations: it refreshes
// the stale load rows and returns the vector. Phases that mutate the
// returned vector in place after a successful actuation (pending
// placement, load balancing) have marked the hosts they touch through
// that actuation, so the next call recomputes them, as the full pass
// rebuilds the vector each call.
func (m *Manager) hostForecastLoads(forecasts []float64) []float64 {
	m.growRows()
	if !m.inc {
		m.staleLoads()
	}
	if stale := m.loadStale; len(stale) > 0 {
		m.threadInbound()
		hosts := m.cl.Hosts()
		for _, i := range stale {
			m.loads[i] = m.hostLoad(hosts[i], forecasts)
			m.loadClean[i] = true
		}
		m.loadStale = stale[:0]
		m.unthreadInbound()
	}
	if m.rowCheck {
		m.checkLoads(forecasts)
	}
	return m.loads
}

// threadInbound chains the in-flight moves by destination: inHead[h]
// is the position+1 of the first move into host index h, in VM-ID
// order, and inNext[k] that of the move after move k (0 ends a chain).
func (m *Manager) threadInbound() {
	in := m.cl.Migrations().Inflights()
	if cap(m.inNext) < len(in) {
		m.inNext = make([]int32, len(in), 2*len(in))
	}
	m.inNext = m.inNext[:len(in)]
	for k := len(in) - 1; k >= 0; k-- {
		d := in[k].Dst - 1
		m.inNext[k] = m.inHead[d]
		m.inHead[d] = int32(k) + 1
	}
}

// unthreadInbound clears the chains threadInbound set.
func (m *Manager) unthreadInbound() {
	for _, mig := range m.cl.Migrations().Inflights() {
		m.inHead[mig.Dst-1] = 0
	}
}

// hostLoad sums the forecasts charged to h in ascending VM-ID order:
// its residents that are not migrating away, merged with the VMs
// migrating in (threadInbound's chain for h).
func (m *Manager) hostLoad(h *host.Host, forecasts []float64) float64 {
	in := m.cl.Migrations().Inflights()
	k := m.inHead[h.ID()-1]
	sum := 0.0
	for _, v := range h.Residents() {
		id := v.ID()
		for ; k > 0 && in[k-1].VM < id; k = m.inNext[k-1] {
			sum += forecasts[in[k-1].VM-1]
		}
		if !m.cl.Migrating(id) {
			sum += forecasts[id-1]
		}
	}
	for ; k > 0; k = m.inNext[k-1] {
		sum += forecasts[in[k-1].VM-1]
	}
	return sum
}

// chargeResidents charges each serving host's own VMs, those not
// migrating away, against its drain bin, which buildBins left holding
// only the in-flight arrivals: capacity and memory in ascending VM-ID
// order, then the groups. A clean bin row whose inbound demand is
// bitwise unchanged supplies the charged state instead.
func (m *Manager) chargeResidents(forecasts []float64, hosts []*host.Host) {
	bins := m.drain.pk.bins
	for b, h := range hosts {
		st := &bins[b]
		r := &m.binRows[h.ID()-1]
		inCPU, inMem := m.binInCPU[b], m.binInMem[b]
		if m.inc && r.clean && r.inCPU == inCPU && r.inMem == inMem && slices.Equal(r.inGroups, st.groups) {
			st.cpuCap, st.memCap = r.cpuCap, r.memCap
			st.groups = append(st.groups, r.groups[len(r.inGroups):]...)
			continue
		}
		r.inCPU, r.inMem = inCPU, inMem
		r.inGroups = append(r.inGroups[:0], st.groups...)
		for _, v := range h.Residents() {
			if m.cl.Migrating(v.ID()) {
				continue
			}
			st.cpuCap = max(st.cpuCap-forecasts[v.ID()-1], 0)
			st.memCap = max(st.memCap-v.MemoryGB(), 0)
			if g := v.Group(); g != "" {
				st.groups = append(st.groups, g)
			}
		}
		r.cpuCap, r.memCap = st.cpuCap, st.memCap
		r.groups = append(r.groups[:0], st.groups...)
		r.clean = true
	}
}

// refreshSegments brings the evacuating hosts' segment rows up to date
// — each host's VMs that are not migrating, which must all move, in
// ascending VM-ID order — and marks in the live plan what changed
// since it was packed. A clean row holds the same VMs, sizes and groups
// as when it was computed, so only three things can change an entry:
// a recomputed row (its old VMs are marked gone, then its new ones
// present, kept or resized), a host that left the drain (its VMs are
// gone), and a host that joined it (its VMs are looked up). It reports
// whether the plan's order is still the sorted order of the current
// evacuees: every one of them is in the plan, and the order holds.
func (m *Manager) refreshSegments(forecasts []float64, evacuating []*host.Host) bool {
	d := &m.drain
	if n := int(m.cl.MaxVMID()); len(d.pos) < n {
		d.pos = append(d.pos, make([]int32, n-len(d.pos))...)
		d.segAt = append(d.segAt, make([]int32, n-len(d.segAt))...)
	}
	d.compact()
	d.resized = d.resized[:0]
	redo, left := d.noteSources(evacuating, len(m.cl.Hosts()))
	if left {
		for _, id := range d.prevSrc {
			if d.srcAt[id-1] == 0 {
				d.markGone(m.segRows[id-1].items, id)
			}
		}
	}
	joined := len(redo)
	for _, h := range evacuating {
		r := &m.segRows[h.ID()-1]
		if m.inc && r.clean {
			continue
		}
		if !slices.Contains(redo[:joined], h) {
			d.markGone(r.items, h.ID())
			redo = append(redo, h)
		}
		seg := r.items[:0]
		for _, v := range h.Residents() {
			if m.cl.Migrating(v.ID()) {
				continue
			}
			d.segAt[v.ID()-1] = int32(len(seg))
			seg = append(seg, Item{
				Key:     int(v.ID()),
				CPU:     forecasts[v.ID()-1],
				MemGB:   v.MemoryGB(),
				Current: -1, // must move
				Group:   v.Group(),
			})
		}
		r.items = seg
		r.clean = true
	}
	d.redo = redo
	if n := len(m.cl.Hosts()); len(d.segBase) < n {
		d.segBase = append(d.segBase, make([]int32, n-len(d.segBase))...)
	}
	d.segOff = append(d.segOff[:0], 0)
	for _, h := range evacuating {
		off := d.segOff[len(d.segOff)-1]
		d.segBase[h.ID()-1] = off
		d.segOff = append(d.segOff, off+int32(len(m.segRows[h.ID()-1].items)))
	}
	if n := int(d.segOff[len(evacuating)]); cap(d.cand) < n {
		d.cand = make([]bool, n, 2*n)
	}
	d.cand = d.cand[:d.segOff[len(evacuating)]]
	clear(d.cand)
	for _, h := range redo {
		if !d.markPresent(m.segRows[h.ID()-1].items, h.ID()) {
			return false
		}
	}
	return d.ordered()
}

// appendEvacuees appends the evacuees of the evacuating hosts, host by
// host in census order, each host's segment in ascending VM-ID order,
// and each evacuee's host to srcs. The segment rows must be current
// (refreshSegments).
func (m *Manager) appendEvacuees(items []Item, srcs []int32, evacuating []*host.Host) ([]Item, []int32) {
	for _, h := range evacuating {
		seg := m.segRows[h.ID()-1].items
		items = append(items, seg...)
		for range seg {
			srcs = append(srcs, int32(h.ID()))
		}
	}
	return items, srcs
}

// rowCheckAll makes every manager built while it is set check its rows
// (see CheckPlanningRowsForAll).
var rowCheckAll atomic.Bool

// CheckPlanningRowsForAll makes every manager built from now on, until
// restore is called, hold each row-backed value to the whole-fleet pass
// at every use: hostForecastLoads' loads, and planDrain's bin start
// states and live plan's evacuees, bit for bit. A difference panics.
// It is for tests, including those whose managers are built out of
// their reach (the experiments build theirs through the root package);
// nothing else calls it, and not while other tests build managers in
// parallel.
func CheckPlanningRowsForAll() (restore func()) {
	rowCheckAll.Store(true)
	return func() { rowCheckAll.Store(false) }
}

// checkLoads compares the load vector with the whole-fleet pass: every
// VM in VM-list order, charged to its in-flight destination or else to
// its placement.
func (m *Manager) checkLoads(forecasts []float64) {
	want := make([]float64, len(m.loads))
	migs := m.cl.Migrations()
	for _, v := range m.cl.VMs() {
		if mig, ok := migs.Get(v.ID()); ok {
			want[mig.Dst-1] += forecasts[v.ID()-1]
			continue
		}
		if hid, ok := m.cl.Placement(v.ID()); ok {
			want[hid-1] += forecasts[v.ID()-1]
		}
	}
	for i := range want {
		if math.Float64bits(m.loads[i]) != math.Float64bits(want[i]) {
			panic(fmt.Sprintf("core: planning rows: host %d load %v, whole-fleet pass %v", i+1, m.loads[i], want[i]))
		}
	}
}

// checkDrain compares planDrain's bin start states and plan with the
// whole-fleet pass: every serving host's residents charged to its
// freshly built bin, and every evacuating host's residents, each one
// in the plan once with its host, sizes and group.
func (m *Manager) checkDrain(forecasts []float64, hosts, evacuating []*host.Host) {
	var pk packer
	m.buildBins(&pk, hosts)
	for i, h := range hosts {
		st := &pk.bins[i]
		for _, v := range h.Residents() {
			if m.cl.Migrating(v.ID()) {
				continue
			}
			st.cpuCap = max(st.cpuCap-forecasts[v.ID()-1], 0)
			st.memCap = max(st.memCap-v.MemoryGB(), 0)
			if g := v.Group(); g != "" {
				st.groups = append(st.groups, g)
			}
		}
	}
	d := &m.drain
	for b := range pk.bins {
		got, want := &d.start[b], &pk.bins[b]
		if got.key != want.key || math.Float64bits(got.cpuCap) != math.Float64bits(want.cpuCap) ||
			math.Float64bits(got.memCap) != math.Float64bits(want.memCap) || !slices.Equal(got.groups, want.groups) {
			panic(fmt.Sprintf("core: planning rows: bin %d is %+v, whole-fleet pass %+v", b, *got, *want))
		}
	}
	n := 0
	for _, h := range evacuating {
		for _, v := range h.Residents() {
			if m.cl.Migrating(v.ID()) {
				continue
			}
			n++
			want := planned{vm: int32(v.ID()), src: int32(h.ID()), cpu: forecasts[v.ID()-1], mem: v.MemoryGB(), group: v.Group()}
			j, ok := d.find(v.ID())
			if !ok {
				panic(fmt.Sprintf("core: planning rows: evacuee %+v is not in the plan", want))
			}
			got := d.plan[j]
			got.bin, got.mark = 0, entryKept
			if got != want {
				panic(fmt.Sprintf("core: planning rows: plan entry %+v, whole-fleet pass %+v", got, want))
			}
		}
	}
	if live := len(d.plan) - d.dead; live != n {
		panic(fmt.Sprintf("core: planning rows: the plan holds %d evacuees, whole-fleet pass %d", live, n))
	}
}
