// Control-plane integration: when a ctrlplane.Plane is attached, the
// manager stops actuating the cluster synchronously. Power and
// migration orders travel as sequence-numbered messages that can be
// delayed, dropped and retried; crash knowledge comes from heartbeat
// liveness instead of direct observation; and scale-down decisions are
// gated on telemetry freshness. Without a plane every path below is a
// nil-check no-op and the manager behaves exactly as before.

package core

import (
	"agilepower/internal/ctrlplane"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/vm"
)

// CtrStaleKeepOn counts scale-down candidates kept on because their
// telemetry was older than the control plane's staleness limit — the
// conservative fallback when the manager cannot trust its view.
const CtrStaleKeepOn = "stale_keep_on"

// AttachControlPlane interposes the message layer between the manager
// and its cluster. Call it after NewManager and before Start. The
// manager registers for command completions (to reconcile its intent
// with what actually happened) and liveness transitions (to plan
// around presumed-dead hosts).
func (m *Manager) AttachControlPlane(cp *ctrlplane.Plane) {
	m.cp = cp
	cp.OnCommandResult(m.commandResult)
	cp.OnLiveness(m.livenessChanged)
}

// ctrlDead reports whether liveness monitoring presumes the host dead.
func (m *Manager) ctrlDead(id host.ID) bool {
	return m.cp != nil && m.cp.Status(id) == ctrlplane.Dead
}

// distrusted reports whether the host is under liveness suspicion
// (suspect or presumed dead): it gets no new VMs, no migrations toward
// it, and no power orders, but its resident VMs stay in the books — a
// suspicion can be false, and releasing their placements would
// double-place them.
func (m *Manager) distrusted(id host.ID) bool {
	return m.cp != nil && m.cp.Status(id) != ctrlplane.Alive
}

// telemetryFresh reports whether the host's telemetry is recent enough
// to justify a power-down decision. Without a plane the manager's view
// is synchronous and always fresh.
func (m *Manager) telemetryFresh(id host.ID) bool {
	return m.cp == nil || m.cp.Fresh(id)
}

// hostCmdPending reports whether a power order for the host is still
// in flight — issuing another would race the retransmit machinery.
func (m *Manager) hostCmdPending(id host.ID) bool {
	return m.cp != nil && m.cp.HostCmdPending(id)
}

// migCmdPending reports whether a migration order for the VM is still
// in flight.
func (m *Manager) migCmdPending(id vm.ID) bool {
	return m.cp != nil && m.cp.MigrationPending(id)
}

// startMigration issues a migration order, directly or over the
// message layer. The async path always returns nil: rejections arrive
// later as nacks and are reconciled in commandResult.
func (m *Manager) startMigration(vid vm.ID, dst host.ID) error {
	if m.cp != nil {
		// The cluster sees nothing until the command lands, so its
		// dirty feed stays silent — but callers mutate the cached load
		// vector after a successful send, and that mutation must not
		// survive into the next read (the full pass rebuilds loads
		// fresh each call). Move the epoch and mark both endpoints'
		// rows explicitly.
		m.invalidate()
		if src, ok := m.cl.Placement(vid); ok {
			m.markHost(src)
		}
		m.markHost(dst)
		m.cp.SendMigrate(vid, dst)
		return nil
	}
	return m.cl.StartMigration(vid, dst)
}

// trustedServing filters liveness-suspect hosts out of a census's
// serving set for placement decisions. Plane-free managers get the
// census slice back untouched (the hot path stays allocation-free).
func (m *Manager) trustedServing(c census) []*host.Host {
	if m.cp == nil {
		return c.serving
	}
	out := m.trusted[:0]
	for _, h := range c.serving {
		if m.distrusted(h.ID()) {
			continue
		}
		out = append(out, h)
	}
	m.trusted = out
	return out
}

// pendingWakeCores sums the capacity of sleeping hosts whose wake
// order is still in flight, so scale-up neither double-issues wakes
// nor over-provisions while commands are in transit.
func (m *Manager) pendingWakeCores(c census) float64 {
	if m.cp == nil {
		return 0
	}
	total := 0.0
	for _, h := range c.sleeping {
		if m.wakingReq[h.ID()] && m.cp.HostCmdPending(h.ID()) {
			total += h.Cores()
		}
	}
	return total
}

// commandResult is the exactly-once completion of one command. err is
// nil on an acked success, the host's rejection otherwise, or
// ctrlplane.ErrLost when no ack survived — in which case the command
// may still have executed, so the manager reconciles against observable
// state before declaring failure (a delayed ack landing after a retry
// already succeeded is counted by the plane and never reaches here
// twice).
func (m *Manager) commandResult(cmd ctrlplane.Command, err error) {
	// Command completions arrive from the message layer, invisible to
	// the cluster's dirty feed, and may touch the evacuating/intent
	// sets below; invalidate unconditionally (over-invalidation is
	// sound and completions are rare).
	m.invalidate()
	switch cmd.Kind {
	case ctrlplane.CmdSleep:
		ok := err == nil
		if !ok {
			if h, found := m.cl.Host(cmd.Host); found {
				mach := h.Machine()
				if !mach.Available() && !mach.Crashed() {
					ok = true // the order took; only the ack was lost
				}
			}
		}
		if ok {
			m.stats.Sleeps++
			m.evacuating.remove(cmd.Host)
		} else {
			// The park never happened: clear the intent so the settle
			// handler does not misread a later transition, and leave the
			// host evacuating for the next control step to retry.
			delete(m.parking, cmd.Host)
		}
	case ctrlplane.CmdWake:
		ok := err == nil
		if !ok {
			if h, found := m.cl.Host(cmd.Host); found {
				mach := h.Machine()
				if mach.Available() || (mach.Phase() == power.Exiting && !mach.Crashed()) {
					ok = true
				}
			}
		}
		if ok {
			m.stats.Wakes++
		} else {
			delete(m.wakingReq, cmd.Host)
		}
	case ctrlplane.CmdMigrate:
		if err != nil && !m.cl.Migrating(cmd.VM) {
			m.stats.MigrationsFailed++
		}
	}
}

// livenessChanged reacts to heartbeat-liveness transitions. A presumed
// death voids all transition intent for the host (mirroring direct
// crash observation) and replans immediately; a recovery — including a
// false suspicion clearing — also replans, since the host's capacity
// is trustworthy again. The suspect state needs no action here: the
// census and placement guards handle it.
func (m *Manager) livenessChanged(id host.ID, s ctrlplane.Status) {
	// Liveness shifts the census (Dead hosts are planned around) and
	// the trust guards; none of it flows through the cluster's dirty
	// feed. Invalidate for every transition, including Suspect — the
	// cost is one recompute, the alternative is a stale plan.
	m.invalidate()
	switch s {
	case ctrlplane.Dead:
		m.counters.Inc(CtrCrashesObserved)
		m.evacuating.remove(id)
		delete(m.parking, id)
		delete(m.wakingReq, id)
		delete(m.retries, id)
		delete(m.retryAt, id)
		if m.started {
			m.step()
		}
	case ctrlplane.Alive:
		if m.started {
			m.step()
		}
	}
}
