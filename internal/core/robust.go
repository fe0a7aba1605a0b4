package core

import (
	"time"

	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
)

// Counter names the manager reports through its telemetry.Counters.
// They only ever move under fault injection; a fault-free run leaves
// the set empty.
const (
	// CtrTransitionRetries — power-transition retries issued (suspend
	// or wake) after an injected failure.
	CtrTransitionRetries = "transition_retries"
	// CtrSuspendFailures — suspends the manager observed not taking
	// (host settled back in S0 while marked for parking).
	CtrSuspendFailures = "suspend_failures"
	// CtrWakeFailures — wakes the manager observed not taking (host
	// fell back asleep while a wake was requested).
	CtrWakeFailures = "wake_failures"
	// CtrQuarantines — hosts barred from power actions after
	// exhausting their transition retries.
	CtrQuarantines = "quarantines"
	// CtrMigrationsAborted — migrations that failed mid-flight.
	CtrMigrationsAborted = "migrations_aborted"
	// CtrMigrationReplans — re-planning passes run in response to an
	// aborted migration.
	CtrMigrationReplans = "migration_replans"
	// CtrDegradedKeepOn — evacuations abandoned because the host could
	// not be suspended: it stays on and serving (energy spent, SLA
	// kept).
	CtrDegradedKeepOn = "degraded_keep_on"
	// CtrCrashesObserved — host crashes the manager reacted to.
	CtrCrashesObserved = "crashes_observed"
	// CtrCapEvacuations — hosts marked for evacuation because the
	// active-host count exceeded a power-feed cap budget.
	CtrCapEvacuations = "power_cap_evacuations"
	// CtrCapDeferredWakes — wake opportunities the manager declined
	// because waking would exceed the power-feed cap budget.
	CtrCapDeferredWakes = "power_cap_deferred_wakes"
	// CtrScriptSkipped — scenario script events that could not be
	// applied when they fired (e.g. crashing an already-down host) and
	// were skipped.
	CtrScriptSkipped = "script_skipped"
)

// Counters returns the manager's robustness counters (all zero in a
// fault-free run).
func (m *Manager) Counters() *telemetry.Counters { return m.counters }

// Quarantined reports whether the host is currently barred from power
// actions, expiring the hold lazily.
func (m *Manager) Quarantined(id host.ID) bool { return m.isQuarantined(id) }

// sleepHost parks a host in the policy sleep state, tracking the
// request so the settle handler can tell success from an injected
// suspend failure. Over a control plane the order is asynchronous:
// success is only known when the ack lands (commandResult).
func (m *Manager) sleepHost(id host.ID) error {
	if m.cp != nil {
		// Async sends bypass the cluster's dirty feed; invalidate so
		// no cached plan outlives the intent change.
		m.invalidate()
		m.parking[id] = true
		m.cp.SendSleep(id, m.cfg.Policy.SleepState)
		return nil
	}
	if err := m.cl.SleepHost(id, m.cfg.Policy.SleepState); err != nil {
		return err
	}
	m.parking[id] = true
	return nil
}

// wakeHost starts waking a host, tracking the request so the settle
// handler can tell success from an injected wake failure. Over a
// control plane the order is asynchronous, like sleepHost.
func (m *Manager) wakeHost(id host.ID) error {
	if m.cp != nil {
		// Async sends bypass the cluster's dirty feed; scaleUp appends
		// to the census's waking set after a successful send, so the
		// cached census must not be served again unrebuilt.
		m.invalidate()
		m.wakingReq[id] = true
		m.cp.SendWake(id)
		return nil
	}
	if err := m.cl.WakeHost(id); err != nil {
		return err
	}
	m.wakingReq[id] = true
	return nil
}

// hostSettled is the manager's reaction to every completed host power
// transition: the settled state against the outstanding request tells
// it whether the transition took.
func (m *Manager) hostSettled(id host.ID, st power.State) {
	if st == power.S0 {
		if m.parking[id] {
			// We asked for sleep and got S0 back: the suspend failed.
			delete(m.parking, id)
			m.suspendFailed(id)
		} else {
			// A completed wake (requested or a crash repair): the host
			// proved it can transition, so forgive past failures.
			delete(m.wakingReq, id)
			delete(m.retries, id)
			delete(m.retryAt, id)
		}
		// React to new capacity immediately — the point of low-latency
		// states is not waiting for the next period to use it.
		m.wokeAt[id] = m.cl.Engine().Now()
		if m.started {
			m.step()
		}
		return
	}
	// Settled in a sleep state.
	if m.parking[id] {
		// The park took; the host sleeps clean.
		delete(m.parking, id)
		delete(m.retries, id)
		delete(m.retryAt, id)
		return
	}
	if m.wakingReq[id] {
		// We asked for S0 and the host fell back asleep: the wake
		// failed.
		delete(m.wakingReq, id)
		m.wakeFailed(id)
	}
}

// suspendFailed handles a suspend that did not take. The host is up
// and still marked evacuating; retry the park after a backoff, or —
// once retries are exhausted — quarantine it and return it to service
// (graceful degradation: burn watts, not SLA).
func (m *Manager) suspendFailed(id host.ID) {
	m.counters.Inc(CtrSuspendFailures)
	m.retries[id]++
	n := m.retries[id]
	if n > m.cfg.MaxTransitionRetries {
		m.quarantine(id)
		m.evacuating.remove(id)
		m.invalidate()
		m.counters.Inc(CtrDegradedKeepOn)
		return
	}
	m.counters.Inc(CtrTransitionRetries)
	// The host stays evacuating; drainEvacuating holds the park until
	// the backoff expires, then re-issues it.
	m.retryAt[id] = m.cl.Engine().Now() + sim.Time(m.backoff(n))
}

// wakeFailed handles a wake that fell back asleep. Unlike a failed
// park, waiting for the control loop is not enough — scaleUp only acts
// on pressure — so the retry is scheduled explicitly.
func (m *Manager) wakeFailed(id host.ID) {
	m.counters.Inc(CtrWakeFailures)
	m.retries[id]++
	n := m.retries[id]
	if n > m.cfg.MaxTransitionRetries {
		// The host cannot be brought up; quarantine it asleep and let
		// scaleUp find capacity elsewhere.
		m.quarantine(id)
		return
	}
	m.counters.Inc(CtrTransitionRetries)
	at := m.cl.Engine().Now() + sim.Time(m.backoff(n))
	m.retryAt[id] = at
	m.cl.Engine().ScheduleFunc(at, func() { m.retryWake(id) })
}

// retryWake re-issues a failed wake once its backoff expires. The
// capacity was judged needed when the wake was first requested; if the
// need has since faded, scale-down will park the host again.
func (m *Manager) retryWake(id host.ID) {
	if !m.started {
		return
	}
	h, ok := m.cl.Host(id)
	if !ok {
		return
	}
	mach := h.Machine()
	if !(mach.State().IsSleep() && mach.Phase() == power.Settled) {
		return // something else already moved it
	}
	if m.distrusted(id) || m.hostCmdPending(id) {
		return
	}
	delete(m.retryAt, id)
	if err := m.wakeHost(id); err == nil && m.cp == nil {
		m.stats.Wakes++
	}
}

// backoff returns the capped exponential delay before retry attempt n
// (1-based): base·2^(n-1), at most RetryBackoffMax.
func (m *Manager) backoff(n int) time.Duration {
	d := m.cfg.RetryBackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= m.cfg.RetryBackoffMax {
			return m.cfg.RetryBackoffMax
		}
	}
	if d > m.cfg.RetryBackoffMax {
		d = m.cfg.RetryBackoffMax
	}
	return d
}

// quarantine bars a host from power actions for QuarantineHold.
func (m *Manager) quarantine(id host.ID) {
	m.counters.Inc(CtrQuarantines)
	m.quarantined[id] = m.cl.Engine().Now() + sim.Time(m.cfg.QuarantineHold)
	delete(m.retries, id)
	delete(m.retryAt, id)
}

// isQuarantined reports whether the host is under a quarantine hold,
// expiring it lazily.
func (m *Manager) isQuarantined(id host.ID) bool {
	until, ok := m.quarantined[id]
	if !ok {
		return false
	}
	if m.cl.Engine().Now() >= until {
		delete(m.quarantined, id)
		return false
	}
	return true
}

// parkHeld reports whether a re-park of the host must wait for a retry
// backoff to expire.
func (m *Manager) parkHeld(id host.ID) bool {
	at, ok := m.retryAt[id]
	return ok && m.cl.Engine().Now() < at
}

// migrationHeld reports whether the VM is still inside the backoff
// window after an aborted migration, expiring it lazily.
func (m *Manager) migrationHeld(id vm.ID) bool {
	at, ok := m.migRetryAt[id]
	if !ok {
		return false
	}
	if m.cl.Engine().Now() >= at {
		delete(m.migRetryAt, id)
		return false
	}
	return true
}

// migrationFailed is the manager's reaction to an aborted migration:
// count it, put the VM on a backoff so a flaky path is not hammered,
// and re-plan the in-progress drains immediately with what is known
// now.
func (m *Manager) migrationFailed(vid vm.ID, src, dst host.ID) {
	m.counters.Inc(CtrMigrationsAborted)
	m.migFails[vid]++
	m.migRetryAt[vid] = m.cl.Engine().Now() + sim.Time(m.cfg.MigrationRetryBackoff)
	if m.started && (m.cfg.Policy.Consolidate || m.cfg.Policy.LoadBalance) {
		m.counters.Inc(CtrMigrationReplans)
		m.continueMoves()
	}
}

// hostCrashed is the manager's reaction to a transient host crash: all
// transition intent for the host is void (the repair supersedes it),
// and a full control step runs immediately to wake replacement
// capacity for the stranded VMs' demand.
func (m *Manager) hostCrashed(id host.ID) {
	if m.cp != nil {
		// With a control plane the manager has no oracle: it learns of
		// crashes from missed heartbeats (livenessChanged), with
		// hysteresis, not from this synchronous callback.
		return
	}
	m.counters.Inc(CtrCrashesObserved)
	m.evacuating.remove(id)
	delete(m.parking, id)
	delete(m.wakingReq, id)
	delete(m.retries, id)
	delete(m.retryAt, id)
	m.invalidate()
	if m.started {
		m.step()
	}
}
