// Incremental planning-input maintenance: the machinery that lets the
// manager's per-step cost scale with fleet churn instead of fleet
// size.
//
// The manager's decisions are pure functions of (cluster state, the
// manager's own intent sets, liveness). Everything here caches those
// pure intermediates — the census, the total forecast, inbound memory,
// and the packing plan — keyed by two generation counters (per-host
// forecast loads and the drain plan's inputs are per-host rows
// instead, see rows.go):
//
//   - epoch   bumps on every event that can change a planning input:
//     the cluster's dirty-host feed (placements, migrations, crashes,
//     power transitions, settles, DVFS), the manager's own writes to
//     its evacuating/maintenance sets, control-plane command results
//     and liveness transitions, and command sends whose effects the
//     cluster cannot see yet.
//   - fcEpoch bumps whenever any VM's clamped forecast value changes
//     bitwise, or the VM set itself changes (arrivals, departures).
//
// A cached value is reused only when its keys are exactly the current
// counters — i.e. when its inputs are provably bitwise-unchanged since
// it was computed. Any change, however small, forces a full identical
// recompute. That is the soundness argument for byte-identity: the
// incremental manager never *delta-updates* a float aggregate (which
// would reorder floating-point sums) and never reuses a plan across a
// real change (a fresh MinBins could legitimately return a different
// prefix). Reuse happens only at zero relevant dirt. The planner
// parity tests hold every intermediate against the full-scan oracle
// (newManager with incremental off), and the goldens pin the reports.
//
// Forecast maintenance is the one place a cheap recompute does not
// exist: the eager path calls Observe on every VM at every manager
// invocation. For the peak-window and last-value forecasters the
// upkeep is split in two. Every invocation records its instant in a
// grid of the distinct invocation times inside the forecast window
// (noteInvocation); only a phase that reads forecasts sweeps the due
// index (forecasts), so a policy that reads rarely — the static
// baseline reads only to place an arrival or drain a maintenance host
// — pays for the upkeep only then. A VM's forecast can only change
// when its demand trace changes value or when the deque head falls out
// of the window; both moments are computable in advance, so each VM's
// deadline sits in the due index and the VM is caught up from the grid
// — bitwise exactly, see visitDue — only at a read after its deadline
// passed. The index is swept in VM-ID order, and the demand reads go
// through the cluster's demand memo, which the evaluation tick has
// usually filled at the same instant. A demand rescale would change
// what a catch-up reads at past grid times, so the cluster reports it
// first and the rescaled VMs are caught up before it (demandRescaled).
// EWMA forecasters evolve on every observation and the diurnal model
// needs the full demand sum every invocation, so those configurations
// observe every VM when the invocation is recorded (correct, just not
// cheap), still with epoch-keyed caches on top.
package core

import (
	"fmt"
	"math"
	"slices"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// neverDue mirrors workload.Never: a due key meaning "no deadline".
const neverDue = sim.Time(math.MaxInt64)

// invalidate marks every epoch-keyed cache stale. Called on any
// manager-side event the cluster's dirty feed cannot see (intent-set
// writes, command sends, liveness transitions). Over-invalidation is
// always sound — it only costs a recompute — so borderline sites call
// this unconditionally.
func (m *Manager) invalidate() { m.epoch++ }

// growVMSlots extends the dense per-VM state (indexed vm.ID-1) to the
// cluster's ID high-water mark. VM IDs are monotonic and never reused;
// slots of departed VMs go stale but are never read, since every
// consumer iterates live-VM lists.
func (m *Manager) growVMSlots() {
	n := int(m.cl.MaxVMID())
	if len(m.fcv) >= n {
		return
	}
	m.fcs = append(m.fcs, make([]Forecaster, n-len(m.fcs))...)
	m.fcv = append(m.fcv, make([]float64, n-len(m.fcv))...)
	m.fcSeenB = append(m.fcSeenB, make([]bool, n-len(m.fcSeenB))...)
	m.lastObs = append(m.lastObs, make([]sim.Time, n-len(m.lastObs))...)
}

// growHostSlots extends the dense per-host state (indexed host.ID-1).
// Hosts are never removed, so len(cl.Hosts()) is the ID high-water
// mark.
func (m *Manager) growHostSlots() {
	n := len(m.cl.Hosts())
	if len(m.loads) >= n {
		return
	}
	m.loads = append(m.loads, make([]float64, n-len(m.loads))...)
	m.inbound = append(m.inbound, make([]float64, n-len(m.inbound))...)
	m.sortLoads = append(m.sortLoads, make([]float64, n-len(m.sortLoads))...)
	m.binOf = append(m.binOf, make([]int32, n-len(m.binOf))...)
	m.binInCPU = append(m.binInCPU, make([]float64, n-len(m.binInCPU))...)
	m.binInMem = append(m.binInMem, make([]float64, n-len(m.binInMem))...)
}

// newForecaster builds one forecaster from the validated spec.
func (m *Manager) newForecaster() Forecaster {
	f, err := m.cfg.Forecast.New()
	if err != nil {
		// Config was validated at construction; a failure here is a
		// programming error.
		panic(fmt.Sprintf("core: forecaster construction: %v", err))
	}
	return f
}

// dueKey returns the next moment a VM's forecast can change, given
// its demand trace's next change: that change, or — for the
// peak-window forecaster — the moment the deque head expires
// (head.at+window+1ns, since the eager cut condition is the strict
// head.at+window < now). With fewer than two samples an expiry cannot
// change the forecast (the monotonic deque would re-admit the same
// value), so only the demand change counts then.
func dueKey(f Forecaster, next sim.Time) sim.Time {
	if pw, ok := f.(*peakWindow); ok {
		if exp, due := pw.nextExpiry(); due {
			if k := exp + 1; k < next {
				return k
			}
		}
	}
	return next
}

// dueFanout is the branching factor of the due index's summary tree.
const dueFanout = 64

// dueIndex holds one due time per VM (indexed vm.ID-1; neverDue when
// the VM has none) under a tree of minima: lv[0] holds the due times,
// lv[k][j] is the minimum of lv[k-1][64j : 64j+64], and the top level
// has a single entry. A sweep descends only into blocks whose minimum
// has passed, so it visits exactly the due entries, in ascending index
// order, scanning one 64-entry block for each block it enters.
type dueIndex struct {
	lv [][]sim.Time
}

// grow extends the index to n entries, the new ones never due.
func (d *dueIndex) grow(n int) {
	if d.lv == nil {
		d.lv = [][]sim.Time{nil}
	}
	for k := 0; k < len(d.lv); k++ {
		for len(d.lv[k]) < n {
			d.lv[k] = append(d.lv[k], neverDue)
		}
		if k == len(d.lv)-1 && len(d.lv[k]) > 1 {
			// The old top has siblings now: put a root over it. Every
			// entry but the old top's first is new, so never due.
			d.lv = append(d.lv, []sim.Time{d.lv[k][0]})
		}
		n = (n + dueFanout - 1) / dueFanout
	}
}

// add lowers entry i's due time to key; an entry already due at or
// before key keeps its time.
func (d *dueIndex) add(i int, key sim.Time) {
	for k := range d.lv {
		if d.lv[k][i] <= key {
			return
		}
		d.lv[k][i] = key
		i /= dueFanout
	}
}

// dueVisitor processes one due entry and returns its next due time,
// which must lie after the sweep's now (neverDue drops the entry).
type dueVisitor interface {
	visitDue(i int, now sim.Time) sim.Time
}

// sweep hands every entry whose due time is at or before now to v,
// once each, in ascending index order, and stores the due times v
// returns.
func (d *dueIndex) sweep(now sim.Time, v dueVisitor) {
	top := len(d.lv) - 1
	if top < 0 || len(d.lv[top]) == 0 || d.lv[top][0] > now {
		return
	}
	d.lv[top][0] = d.sweepEntry(top, 0, now, v)
}

// sweepEntry sweeps the due entries under entry j of level k and
// returns their new minimum.
func (d *dueIndex) sweepEntry(k, j int, now sim.Time, v dueVisitor) sim.Time {
	if k == 0 {
		return v.visitDue(j, now)
	}
	below := d.lv[k-1]
	lo := j * dueFanout
	hi := min(lo+dueFanout, len(below))
	least := neverDue
	for c := lo; c < hi; c++ {
		if below[c] <= now {
			below[c] = d.sweepEntry(k-1, c, now, v)
		}
		least = min(least, below[c])
	}
	return least
}

// noteInvocation records a manager invocation at the current instant.
// Every entry point (step, wakeCheck, continueMoves) calls it first,
// whether or not any of its phases goes on to read a forecast. The
// lazy path appends a new instant to the grid, the distinct invocation
// times inside the forecast window, and initialises newcomers, whose
// first observation happens at their first invocation; the eager path
// observes every VM here, so its forecasts are current at every
// invocation, read or not.
func (m *Manager) noteInvocation() {
	now := m.cl.Engine().Now()
	if !m.lazyFC {
		m.eagerObserve(now)
		return
	}
	if n := len(m.grid); n == 0 || now > m.grid[n-1] {
		// Drop the times no catch-up can replay any more: after
		// Observe(now) the deque keeps only samples at or after
		// now-window. Compacting in place keeps a warm grid from
		// allocating.
		cut := 0
		for cut < n && m.grid[cut] < now-m.window {
			cut++
		}
		if cut > 0 {
			m.grid = m.grid[:copy(m.grid, m.grid[cut:])]
		}
		m.grid = append(m.grid, now)
		m.rescaledNow = false
	} else if m.rescaledNow {
		// A rescale followed an invocation at this instant, and this
		// invocation observes the rescaled demand at the same instant,
		// as the eager sweep would; the grid has no second entry for it,
		// so the rescaled VMs, due now, are caught up at once.
		m.rescaledNow = false
		m.due.sweep(now, m)
	}
	// Fleet membership moved: initialise newcomers and bump fcEpoch —
	// totals and plans iterate the VM list, so set changes invalidate
	// them even when no forecast value moved.
	if ve := m.cl.VMEpoch(); ve != m.vmSeen {
		m.vmSeen = ve
		m.fcEpoch++
		m.growVMSlots()
		m.due.grow(int(m.cl.MaxVMID()))
		for id := m.maxInit + 1; id <= m.cl.MaxVMID(); id++ {
			if _, ok := m.cl.VM(id); !ok {
				continue // created and departed between invocations
			}
			i := int(id) - 1
			m.fcs[i] = m.newForecaster()
			m.lastObs[i] = now
			m.due.add(i, m.visitDue(i, now))
		}
		m.maxInit = m.cl.MaxVMID()
	}
}

// forecasts brings every VM's forecast up to the latest invocation and
// returns the clamped forecast vector (indexed vm.ID-1). Only the
// phases that read forecasts call it, after their own early returns.
// On the lazy path it sweeps the due index, catching up each VM whose
// forecast may have moved since it was last caught up (visitDue); a
// sweep where nothing is due reads one root entry. The eager path
// observed every VM when the invocation was recorded.
func (m *Manager) forecasts() []float64 {
	if m.lazyFC && len(m.grid) > 0 {
		m.due.sweep(m.grid[len(m.grid)-1], m)
	}
	return m.fcv
}

// visitDue catches VM index i up from its last observation to the
// latest invocation, now, bitwise as the eager sweep would have,
// records its clamped forecast and returns its next due time (neverDue
// for a departed VM, whose stale entry it drops). The sweep calls it
// for a VM whose deadline passed; newcomers and rescaled VMs are
// caught up through it too.
//
// The eager sweep observes the VM at every grid time; the catch-up
// replays only the grid times after lastObs[i], one observation per
// run of equal demand: it reads the demand and its next change at the
// run's first grid time, observes at the run's last grid time before
// that change, and goes on from the first grid time at or after it.
// A run that reaches now is left to the final observation at now. The
// result is exact: after Observe(now) the deque holds only samples at
// or after now-window (its cut is the strict at+window < now), which of
// those survive is decided only by later observations, all inside the
// window too, and a run of equal observations leaves the deque its
// last one alone would. The grid holds every invocation time inside
// the window, so nothing the eager sweep kept is skipped. With a
// last-value forecaster the window is empty and only now is observed.
func (m *Manager) visitDue(i int, _ sim.Time) sim.Time {
	v, ok := m.cl.VM(vm.ID(i + 1))
	if !ok {
		return neverDue
	}
	g := m.grid
	now := g[len(g)-1]
	f := m.fcs[i]
	// The first grid time after lastObs[i]: usually now itself, when the
	// VM was caught up at the previous invocation.
	lo, last := len(g)-1, m.lastObs[i]
	for lo > 0 && g[lo-1] > last {
		lo--
	}
	for lo < len(g)-1 {
		d, next := m.cl.VMDemandNext(v, g[lo])
		if next > now {
			break // the run reaches now
		}
		// g[lo] < next <= now = g[len(g)-1], so hi lands in (lo, len(g)-1].
		j, _ := slices.BinarySearch(g[lo+1:], next)
		hi := lo + 1 + j
		f.Observe(g[hi-1], d)
		lo = hi
	}
	m.lastObs[i] = now
	d, next := m.cl.VMDemandNext(v, now)
	f.Observe(now, d)
	fc := f.Forecast()
	if fc > v.VCPUs() {
		fc = v.VCPUs()
	}
	m.setForecast(vm.ID(i+1), fc)
	return dueKey(f, next)
}

// demandRescaled runs before the cluster rescales VM v's demand (a
// scenario demand surge). A lazy catch-up reads demand at past grid
// times, which would see the new scale for moments before it, so v is
// caught up to the latest invocation now, under its old scale, and
// made due at once: its next read replays only grid times after the
// rescale. When an invocation already happened at this instant, a
// later one at the same instant observes the new demand there, as the
// eager sweep would (see noteInvocation). A VM not yet initialised
// first observes at its first invocation, after the rescale.
func (m *Manager) demandRescaled(v *vm.VM) {
	id := v.ID()
	if !m.lazyFC || id > m.maxInit || len(m.grid) == 0 {
		return
	}
	i := int(id) - 1
	last := m.grid[len(m.grid)-1]
	if m.lastObs[i] < last {
		m.visitDue(i, last)
	}
	now := m.cl.Engine().Now()
	m.due.add(i, now)
	if now == last {
		m.rescaledNow = true
	}
}

// eagerObserve is the full per-VM sweep: every live VM is observed at
// now and its clamped forecast recorded. Used by the full-scan mode
// and by incremental configurations whose forecaster cannot be
// maintained lazily (EWMA, predictive wake). Departed VMs' forecasters
// and migration bookkeeping are pruned, exactly as the pre-incremental
// manager did (the pruning is memory-only: IDs are never reused, so a
// stale entry could never be read).
func (m *Manager) eagerObserve(now sim.Time) {
	m.growVMSlots()
	seen := m.fcSeenB
	for i := range seen {
		seen[i] = false
	}
	for _, v := range m.cl.VMs() {
		i := v.ID() - 1
		f := m.fcs[i]
		if f == nil {
			f = m.newForecaster()
			m.fcs[i] = f
		}
		f.Observe(now, m.cl.VMDemand(v, now))
		fc := f.Forecast()
		// Never forecast below the VM's cap nor above it.
		if fc > v.VCPUs() {
			fc = v.VCPUs()
		}
		m.setForecast(v.ID(), fc)
		seen[i] = true
	}
	if ve := m.cl.VMEpoch(); ve != m.vmSeen {
		m.vmSeen = ve
		m.fcEpoch++
	}
	// Drop forecasters (and robustness bookkeeping) of departed VMs.
	for i := range m.fcs {
		if m.fcs[i] != nil && !seen[i] {
			m.fcs[i] = nil
			delete(m.migFails, vm.ID(i+1))
			delete(m.migRetryAt, vm.ID(i+1))
		}
	}
	if m.diurnal != nil {
		total := 0.0
		for _, v := range m.cl.VMs() {
			total += m.cl.VMDemand(v, now)
		}
		m.diurnal.Observe(now, total)
	}
}
