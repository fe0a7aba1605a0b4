package ctrlplane

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

func newPlane(t *testing.T, hosts int, cfg Config) (*sim.Engine, *cluster.Cluster, *Plane) {
	t.Helper()
	eng := sim.NewEngine(7)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(eng, cl, cfg, telemetry.NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, p
}

func TestDormantConfigRefused(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, cl, Config{}, nil); err == nil {
		t.Fatal("accepted a dormant config — the RNG fork alone would perturb the stream")
	}
	// An interval alone does not enable the plane: no message can be
	// delayed or lost, so nothing observable changes.
	if (Config{ReportInterval: time.Minute}).Enabled() {
		t.Fatal("interval-only config reported enabled")
	}
	for _, c := range []Config{
		{CmdDelay: time.Second}, {CmdJitter: time.Second}, {CmdLossProb: 0.1},
		{ReportDelay: time.Second}, {ReportJitter: time.Second}, {ReportLossProb: 0.1},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v should be enabled", c)
		}
	}
}

func TestPresetMixes(t *testing.T) {
	if cfg := Preset(0, 0); cfg != (Config{}) || cfg.Enabled() {
		t.Fatalf("Preset(0,0) = %+v, want dormant zero config", cfg)
	}
	if cfg := Preset(-time.Second, -0.5); cfg != (Config{}) {
		t.Fatalf("negative preset inputs = %+v, want dormant zero config", cfg)
	}
	cfg := Preset(2*time.Second, 3)
	if cfg.CmdLossProb != 1 || cfg.ReportLossProb != 1 {
		t.Fatalf("loss not clamped to 1: %+v", cfg)
	}
	if cfg.CmdDelay != 2*time.Second || cfg.CmdJitter != time.Second {
		t.Fatalf("preset delay/jitter wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset config invalid: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	_, _, p := newPlane(t, 1, Config{CmdDelay: 2 * time.Second})
	cfg := p.Config()
	if cfg.ReportInterval != 30*time.Second || cfg.HeartbeatInterval != 10*time.Second ||
		cfg.SuspectMissed != 3 || cfg.DeadMissed != 3 {
		t.Fatalf("telemetry/liveness defaults wrong: %+v", cfg)
	}
	if want := 2*(2*time.Second) + 5*time.Second; cfg.AckTimeout != want {
		t.Fatalf("AckTimeout = %v, want %v (2×RTT budget + 5s)", cfg.AckTimeout, want)
	}
	if cfg.MaxCmdRetries != 3 {
		t.Fatalf("MaxCmdRetries = %d, want 3", cfg.MaxCmdRetries)
	}
	if cfg.StaleLimit != 4*cfg.ReportInterval {
		t.Fatalf("StaleLimit = %v, want %v", cfg.StaleLimit, 4*cfg.ReportInterval)
	}
	// Negative retries means "no retransmissions", not a default.
	_, _, p2 := newPlane(t, 1, Config{CmdDelay: time.Second, MaxCmdRetries: -1})
	if p2.Config().MaxCmdRetries != 0 {
		t.Fatalf("MaxCmdRetries(-1) = %d, want 0", p2.Config().MaxCmdRetries)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{CmdLossProb: 1.5},
		{ReportLossProb: -0.1},
		{CmdDelay: -time.Second},
		{ReportJitter: -time.Second},
		{SuspectMissed: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", c)
		}
	}
}

func TestCommandLostAfterRetryExhaustion(t *testing.T) {
	// Total loss: every command leg is dropped, so every attempt times
	// out and the command is eventually abandoned with ErrLost.
	eng, _, p := newPlane(t, 1, Config{
		CmdLossProb: 1, AckTimeout: time.Second, MaxCmdRetries: 2,
	})
	var results []error
	p.OnCommandResult(func(_ Command, err error) { results = append(results, err) })
	p.SendSleep(1, power.S3)
	if !p.HostCmdPending(1) {
		t.Fatal("command not pending right after send")
	}
	eng.RunUntil(sim.Time(time.Minute))

	if len(results) != 1 || !errors.Is(results[0], ErrLost) {
		t.Fatalf("results = %v, want exactly one ErrLost", results)
	}
	if p.HostCmdPending(1) {
		t.Fatal("command still pending after abandonment")
	}
	c := p.ctrs
	if got := c.Get(CtrCmdDrops); got != 3 {
		t.Fatalf("cmd_drops = %d, want 3 (initial + 2 retries)", got)
	}
	if got := c.Get(CtrCmdTimeouts); got != 3 {
		t.Fatalf("cmd_timeouts = %d, want 3", got)
	}
	if got := c.Get(CtrCmdRetries); got != 2 {
		t.Fatalf("cmd_retries = %d, want 2", got)
	}
	if got := c.Get(CtrCmdLost); got != 1 {
		t.Fatalf("cmd_lost = %d, want 1", got)
	}
}

func TestRetransmitDedupAndLateAck(t *testing.T) {
	// No loss, but the ack timeout is shorter than the round trip, so
	// the sender retransmits a command that did arrive. The receiver
	// must suppress the duplicate and re-ack the cached result, and the
	// second ack must land as a counted no-op (the first one resolved
	// the command).
	//
	// Timeline (delay 3s each leg, ack timeout 4s):
	//   t=0  attempt 1 sent          t=4  timeout → attempt 2
	//   t=3  attempt 1 executes      t=7  attempt 2 → duplicate
	//   t=6  ack 1 resolves (nil)    t=10 ack 2 → late, dropped
	eng, cl, p := newPlane(t, 1, Config{
		CmdDelay: 3 * time.Second, AckTimeout: 4 * time.Second, MaxCmdRetries: 3,
	})
	var results []error
	p.OnCommandResult(func(_ Command, err error) { results = append(results, err) })
	cl.Start()
	p.SendSleep(1, power.S3)
	eng.RunUntil(sim.Time(30 * time.Second))

	if len(results) != 1 || results[0] != nil {
		t.Fatalf("results = %v, want exactly one nil (acked success)", results)
	}
	c := p.ctrs
	for name, want := range map[string]int{
		CtrCmdTimeouts: 1, CtrCmdRetries: 1, CtrCmdDupes: 1,
		CtrLateAcks: 1, CtrCmdLost: 0, CtrCmdDrops: 0,
	} {
		if got := c.Get(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// The command executed exactly once: the host really went down.
	h, _ := cl.Host(1)
	if h.Machine().State() != power.S3 {
		t.Fatalf("host state = %v, want S3 (single execution)", h.Machine().State())
	}
	if p.HostCmdPending(1) {
		t.Fatal("command still pending after resolution")
	}
}

func TestNackedCommandReportsHostError(t *testing.T) {
	// Host 1 has a resident VM, so SleepHost is rejected host-side; the
	// rejection must travel back as the command result.
	eng, cl, p := newPlane(t, 1, Config{CmdDelay: time.Second})
	if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(2)}, 1); err != nil {
		t.Fatal(err)
	}
	var results []error
	p.OnCommandResult(func(_ Command, err error) { results = append(results, err) })
	cl.Start()
	p.SendSleep(1, power.S3)
	eng.RunUntil(sim.Time(time.Minute))

	if len(results) != 1 || results[0] == nil {
		t.Fatalf("results = %v, want exactly one non-nil rejection", results)
	}
	if got := p.ctrs.Get(CtrCmdNacks); got != 1 {
		t.Fatalf("cmd_nacks = %d, want 1", got)
	}
}

func TestMigrationCommandLifecycle(t *testing.T) {
	eng, cl, p := newPlane(t, 2, Config{CmdDelay: time.Second})
	v, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var results []error
	p.OnCommandResult(func(_ Command, err error) { results = append(results, err) })
	cl.Start()
	p.SendMigrate(v.ID(), 2)
	if !p.MigrationPending(v.ID()) {
		t.Fatal("migration order not pending after send")
	}
	eng.RunUntil(sim.Time(30 * time.Minute))

	if len(results) != 1 || results[0] != nil {
		t.Fatalf("results = %v, want one acked success", results)
	}
	if p.MigrationPending(v.ID()) {
		t.Fatal("migration order still pending after ack")
	}
	if st := cl.Migrations().Stats(); st.Completed != 1 {
		t.Fatalf("migration stats = %+v, want 1 completed", st)
	}
	if on, _ := cl.Placement(v.ID()); on != 2 {
		t.Fatalf("VM on host %d, want 2", on)
	}
}

func TestLivenessHysteresisAndRecovery(t *testing.T) {
	// Host 1 crashes at t=65s for 2 minutes. Beats stop, so the monitor
	// suspects it (3 missed beats), then presumes it dead (3 more); the
	// repair restores beats and the status returns to Alive. Host 2
	// beats throughout and never leaves Alive.
	eng, cl, p := newPlane(t, 2, Config{ReportDelay: 100 * time.Millisecond})
	var transitions []Status
	p.OnLiveness(func(id host.ID, s Status) {
		if id == 1 {
			transitions = append(transitions, s)
		} else {
			t.Errorf("host 2 changed liveness to %v", s)
		}
	})
	cl.Start()
	p.Start()
	eng.AfterFunc(65*time.Second, func() {
		if err := cl.CrashHost(1, 2*time.Minute); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	eng.RunUntil(sim.Time(6 * time.Minute))

	want := []Status{Suspect, Dead, Alive}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i, s := range want {
		if transitions[i] != s {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	if p.Status(1) != Alive || p.Status(2) != Alive {
		t.Fatalf("final status = %v/%v, want alive/alive", p.Status(1), p.Status(2))
	}
	c := p.ctrs
	if c.Get(CtrSuspects) != 1 || c.Get(CtrDeaths) != 1 || c.Get(CtrRecoveries) != 1 {
		t.Fatalf("liveness counters = %d/%d/%d, want 1/1/1",
			c.Get(CtrSuspects), c.Get(CtrDeaths), c.Get(CtrRecoveries))
	}
	// Out-of-range IDs are reported Alive (no panic, no false alarm).
	if p.Status(99) != Alive {
		t.Fatal("unknown host not reported alive")
	}
}

func TestSleepingHostsKeepBeating(t *testing.T) {
	// A parked host's management controller stays powered: it beats and
	// must never be suspected just for sleeping.
	eng, cl, p := newPlane(t, 1, Config{ReportDelay: 100 * time.Millisecond})
	cl.Start()
	p.Start()
	if err := cl.SleepHost(1, power.S5); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * time.Minute))
	if p.Status(1) != Alive {
		t.Fatalf("sleeping host status = %v, want alive", p.Status(1))
	}
	if got := p.ctrs.Get(CtrSuspects); got != 0 {
		t.Fatalf("hb_suspects = %d, want 0", got)
	}
}

func TestSnapshotFreshnessAndOrdering(t *testing.T) {
	eng, cl, p := newPlane(t, 1, Config{ReportDelay: time.Second})
	cl.Start()
	p.Start()
	if p.Fresh(1) {
		t.Fatal("host fresh before any report landed")
	}
	if _, ok := p.SnapshotAge(1); ok {
		t.Fatal("SnapshotAge reported a value before any report")
	}
	eng.RunUntil(sim.Time(40 * time.Second))

	// The t=30s report arrived at t=31s; its age at t=40s is 10s.
	snap := p.LastSnapshot(1)
	if !snap.Valid || snap.At != sim.Time(30*time.Second) {
		t.Fatalf("snapshot = %+v, want valid report published at 30s", snap)
	}
	age, ok := p.SnapshotAge(1)
	if !ok || age != 10*time.Second {
		t.Fatalf("age = %v/%v, want 10s", age, ok)
	}
	if !p.Fresh(1) {
		t.Fatal("10s-old snapshot not fresh under a 120s limit")
	}
	// A delayed older report must never roll the view backwards.
	p.deliverSnapshot(1, Snapshot{At: sim.Time(5 * time.Second), Util: 0.99, Valid: true})
	if got := p.LastSnapshot(1); got.At != sim.Time(30*time.Second) {
		t.Fatalf("out-of-order report rolled the view back to %v", got.At)
	}

	// Once the host crashes, reports stop and the view ages past the
	// stale limit (120s): freshness is lost, conservatively.
	if err := cl.CrashHost(1, time.Hour); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(160 * time.Second))
	if p.Fresh(1) {
		age, _ := p.SnapshotAge(1)
		t.Fatalf("crashed host still fresh at age %v", age)
	}
	if got := p.ctrs.Get(CtrReportAgeMaxMS); got < 120_000 {
		t.Fatalf("report_age_max_ms = %d, want >= 120000", got)
	}
}

func TestPlaneDeterministicAcrossReruns(t *testing.T) {
	run := func() map[string]int {
		eng, cl, p := newPlane(t, 3, Config{
			CmdDelay: time.Second, CmdJitter: 500 * time.Millisecond, CmdLossProb: 0.4,
			ReportDelay: time.Second, ReportJitter: 500 * time.Millisecond, ReportLossProb: 0.4,
			AckTimeout: 3 * time.Second,
		})
		cl.Start()
		p.Start()
		for i := 0; i < 5; i++ {
			id := host.ID(i%3 + 1)
			eng.AfterFunc(time.Duration(i)*time.Minute, func() { p.SendSleep(id, power.S3) })
			eng.AfterFunc(time.Duration(i)*time.Minute+30*time.Second, func() { p.SendWake(id) })
		}
		eng.RunUntil(sim.Time(10 * time.Minute))
		return p.ctrs.Snapshot()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("lossy run left no counter tracks")
	}
	for name, v := range a {
		if b[name] != v {
			t.Fatalf("counter %s diverged across reruns: %d vs %d", name, v, b[name])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("counter sets diverged: %v vs %v", a, b)
	}
}

// TestPlaneMessagesAllocFree holds the plane's periodic traffic to zero
// allocations once warm: the heartbeat, telemetry and monitor sweeps,
// and the delivery of every beat and report they send. Beats use
// callbacks bound per host at Start, reports ride pooled messages, each
// sweep's batch comes from the engine's free list, and the sweeps
// reschedule through method values bound once, so nothing is built per
// message. Each measured run covers 30 s of a lossy,
// jittered plane over 64 hosts: three heartbeat and monitor sweeps, one
// telemetry sweep, and about 230 deliveries.
func TestPlaneMessagesAllocFree(t *testing.T) {
	eng, _, p := newPlane(t, 64, Config{
		ReportDelay: 2 * time.Second, ReportJitter: 3 * time.Second, ReportLossProb: 0.1,
	})
	p.Start()
	// Warm up: the queue reaches its working depth, the report free
	// list fills, and every counter the traffic touches exists.
	eng.RunUntil(sim.Time(2 * time.Minute))
	fired, drops := eng.Fired(), p.ctrs.Get(CtrBeatDrops)
	const runs = 20
	avg := testing.AllocsPerRun(runs, func() {
		eng.RunUntil(eng.Now() + sim.Time(30*time.Second))
	})
	if avg != 0 {
		t.Fatalf("30 s of heartbeats, reports and sweeps allocate %.2f times, want 0", avg)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if got := eng.Fired() - fired; got < (runs+1)*200 {
		t.Fatalf("measured runs fired %d events, want at least %d", got, (runs+1)*200)
	}
	if p.ctrs.Get(CtrBeatDrops) == drops {
		t.Fatal("no beat was lost during the measured runs: the loss path went unmeasured")
	}
	if !p.LastSnapshot(64).Valid {
		t.Fatal("no report landed")
	}
}

// TestPlaneDeliveryOrderPinned pins the order in which the plane's
// messages land where they tie. With zero jitter every beat and report
// lands on a 10 s multiple, at the same instant as the sweeps that fire
// there, and 10 s command legs tie with both. The run is made twice:
// with a 20 s report delay, so the messages of two heartbeat sweeps are
// in flight at once, and with a 10 s one, so a sweep's beats land at
// the instant of the next sweep it scheduled. Loss, a partition window
// and a crash make the liveness monitor act on what arrived, and every
// liveness transition is answered at once, as the manager's control
// step does: it logs the host's snapshot and sends the host a wake,
// which draws from the plane's RNG, so the stream depends on where the
// transition falls among the other messages of its instant.
//
// The test hashes that log, each command result with its time, and the
// final counters, snapshots, last beats and statuses, and the engine's
// fired and pending counts, and compares the digest with the one the
// plane printed when every message was its own engine event. To print
// it at that commit:
//
//	git checkout 53e7c3a -- internal/sim internal/ctrlplane/ctrlplane.go
//	go test -run TestPlaneDeliveryOrderPinned -v ./internal/ctrlplane/
func TestPlaneDeliveryOrderPinned(t *testing.T) {
	const want = "b21ccdcd23a9b4c63df563e340dd517a38708ae75ac11a2b43208c6097a956fb"
	var log strings.Builder
	for _, delay := range []time.Duration{20 * time.Second, 10 * time.Second} {
		fmt.Fprintf(&log, "report delay %v\n", delay)
		pinnedDeliveryRun(t, &log, delay)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(log.String())))
	t.Logf("digest %s", got)
	if got != want {
		t.Fatalf("delivery digest %s, want %s; log:\n%s", got, want, log.String())
	}
}

// pinnedDeliveryRun runs 15 minutes of TestPlaneDeliveryOrderPinned's
// plane, with the given report delay, and appends its log to log.
func pinnedDeliveryRun(t *testing.T, log *strings.Builder, delay time.Duration) {
	eng, cl, p := newPlane(t, 16, Config{
		CmdDelay: 10 * time.Second, CmdLossProb: 0.05,
		ReportDelay: delay, ReportLossProb: 0.05,
	})
	// Odd hosts carry load, so their snapshots report it; even hosts
	// are parked and woken by commands.
	for i := 0; i < 8; i++ {
		tr := workload.Constant(float64(1 + i%3))
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(2*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	p.OnLiveness(func(id host.ID, s Status) {
		fmt.Fprintf(log, "%v host %d %v fresh=%v %+v\n", eng.Now(), id, s, p.Fresh(id), p.LastSnapshot(id))
		p.SendWake(id)
	})
	p.OnCommandResult(func(c Command, err error) {
		fmt.Fprintf(log, "%v cmd %d %v host %d: %v\n", eng.Now(), c.Seq, c.Kind, c.Host, err)
	})
	cl.Start()
	p.Start()
	for i := 0; i < 12; i++ {
		id := host.ID(2*(i%7) + 2) // never host 16, which crashes
		at := sim.Time(i)*sim.Time(time.Minute) + sim.Time(10*(i%6))*sim.Time(time.Second)
		eng.ScheduleFunc(at, func() { p.SendSleep(id, power.S3) })
		eng.ScheduleFunc(at+sim.Time(2*time.Minute), func() { p.SendWake(id) })
	}
	eng.ScheduleFunc(sim.Time(4*time.Minute), p.Partition)
	eng.ScheduleFunc(sim.Time(6*time.Minute+10*time.Second), p.RestoreImpairment)
	eng.ScheduleFunc(sim.Time(8*time.Minute), func() {
		if err := cl.CrashHost(16, 2*time.Minute); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	eng.RunUntil(sim.Time(15 * time.Minute))

	for _, name := range p.ctrs.Names() {
		fmt.Fprintf(log, "%s=%d\n", name, p.ctrs.Get(name))
	}
	for i := range p.snaps {
		id := host.ID(i + 1)
		fmt.Fprintf(log, "host %d %+v beat %v %v\n", id, p.LastSnapshot(id), p.lastBeat[i], p.Status(id))
	}
	fmt.Fprintf(log, "fired %d pending %d\n", eng.Fired(), eng.Pending())
}
