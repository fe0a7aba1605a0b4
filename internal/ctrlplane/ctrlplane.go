// Package ctrlplane models the imperfect management network between
// the power-aware manager and its hosts: telemetry that arrives late
// (or not at all), power and migration commands that can be dropped
// and must be retried, and liveness that has to be inferred from
// heartbeats instead of read directly.
//
// The paper's manager runs against real servers over a management
// network; our core.Manager reads cluster state synchronously and its
// commands always land. This package interposes a deterministic,
// seed-driven message layer, carried entirely on sim.Engine events:
//
//   - Telemetry agents: each host publishes a utilization/power
//     snapshot every ReportInterval; reports travel with delay+jitter
//     and can be lost, so the manager's per-host view carries an age.
//   - Command channel: SleepHost/WakeHost/migration orders are
//     sequence-numbered. Each command leg and each ack leg can be
//     delayed and dropped; the sender detects ack timeouts and
//     retransmits (capped), the receiver dedups by sequence number and
//     re-acks the cached result, so re-issue is idempotent.
//   - Heartbeat liveness: hosts beat every HeartbeatInterval; a
//     monitor applies hysteresis (SuspectMissed missed beats suspect a
//     host, DeadMissed more presume it dead) instead of letting the
//     manager observe crashes directly.
//
// Dormancy contract (mirroring internal/faults): a Config with zero
// delay, jitter and loss is Enabled() == false and callers must not
// construct a Plane for it — even the RNG fork alone would perturb the
// engine's stream and break byte-identity with plane-free runs.
package ctrlplane

import (
	"errors"
	"fmt"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
)

// Counter names the plane reports through the manager's
// telemetry.Counters. All stay zero on a loss-free, delay-free run.
const (
	// CtrCmdTimeouts — ack deadlines that expired before an ack landed.
	CtrCmdTimeouts = "cmd_timeouts"
	// CtrCmdRetries — command retransmissions after an ack timeout.
	CtrCmdRetries = "cmd_retries"
	// CtrCmdDupes — duplicate command deliveries suppressed by the
	// receiver's sequence-number dedup (the cached result is re-acked).
	CtrCmdDupes = "cmd_dupes_suppressed"
	// CtrCmdDrops — command legs lost in flight.
	CtrCmdDrops = "cmd_drops"
	// CtrAckDrops — ack legs lost in flight.
	CtrAckDrops = "ack_drops"
	// CtrCmdNacks — commands the host executed and rejected (the ack
	// carried an error).
	CtrCmdNacks = "cmd_nacks"
	// CtrCmdLost — commands abandoned after exhausting retransmissions.
	CtrCmdLost = "cmd_lost"
	// CtrLateAcks — acks that landed after their command was already
	// resolved (a retry succeeded first, or the sender gave up); the
	// reconciliation path drops them so completion fires exactly once.
	CtrLateAcks = "cmd_late_acks"
	// CtrReportDrops — telemetry reports lost in flight.
	CtrReportDrops = "report_drops"
	// CtrBeatDrops — heartbeats lost in flight.
	CtrBeatDrops = "hb_drops"
	// CtrSuspects — hosts that crossed the missed-beat suspect
	// threshold.
	CtrSuspects = "hb_suspects"
	// CtrDeaths — suspected hosts presumed dead after DeadMissed more
	// missed beats.
	CtrDeaths = "hb_deaths"
	// CtrRecoveries — non-alive hosts whose beat resumed (including
	// false-positive suspicions of healthy hosts).
	CtrRecoveries = "hb_recoveries"
	// CtrReportAgeMaxMS — high-water mark of telemetry snapshot age in
	// milliseconds, sampled at every monitor sweep.
	CtrReportAgeMaxMS = "report_age_max_ms"
)

// ErrLost is the command result when every transmission attempt went
// unacknowledged: the sender cannot know whether the command executed.
var ErrLost = errors.New("ctrlplane: command lost (retries exhausted)")

// Config parameterizes the message layer. The zero value is dormant.
type Config struct {
	// CmdDelay and CmdJitter shape each command and ack leg's transit
	// time: base plus a uniform draw in [0, jitter).
	CmdDelay  time.Duration
	CmdJitter time.Duration
	// CmdLossProb is the probability any single command or ack leg is
	// dropped in flight.
	CmdLossProb float64
	// AckTimeout is how long the sender waits for an ack before
	// retransmitting (default: 2×(CmdDelay+CmdJitter) + 5s, so a
	// loss-free round trip never times out spuriously).
	AckTimeout time.Duration
	// MaxCmdRetries caps retransmissions after the first attempt
	// (default 3; negative disables retries).
	MaxCmdRetries int

	// ReportInterval is the telemetry agents' publish period (default
	// 30s). ReportDelay/ReportJitter/ReportLossProb shape the report
	// path; heartbeats travel the same path.
	ReportInterval time.Duration
	ReportDelay    time.Duration
	ReportJitter   time.Duration
	ReportLossProb float64
	// StaleLimit is the snapshot age beyond which the manager must not
	// trust a host's telemetry for power-down decisions (default
	// 4×ReportInterval).
	StaleLimit time.Duration

	// HeartbeatInterval is the liveness beat period (default 10s).
	// SuspectMissed beats missed mark a host suspect; DeadMissed more
	// presume it dead (defaults 3 and 3).
	HeartbeatInterval time.Duration
	SuspectMissed     int
	DeadMissed        int
}

// Enabled reports whether the configuration perturbs anything at all.
// Dormant configurations must stay plane-free so runs are
// byte-identical to plane-unaware builds.
func (c Config) Enabled() bool {
	return c.CmdDelay > 0 || c.CmdJitter > 0 || c.CmdLossProb > 0 ||
		c.ReportDelay > 0 || c.ReportJitter > 0 || c.ReportLossProb > 0
}

func (c *Config) applyDefaults() {
	if c.ReportInterval <= 0 {
		c.ReportInterval = 30 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 10 * time.Second
	}
	if c.SuspectMissed == 0 {
		c.SuspectMissed = 3
	}
	if c.DeadMissed == 0 {
		c.DeadMissed = 3
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2*(c.CmdDelay+c.CmdJitter) + 5*time.Second
	}
	if c.MaxCmdRetries == 0 {
		c.MaxCmdRetries = 3
	} else if c.MaxCmdRetries < 0 {
		c.MaxCmdRetries = 0
	}
	if c.StaleLimit <= 0 {
		c.StaleLimit = 4 * c.ReportInterval
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"command loss", c.CmdLossProb},
		{"report loss", c.ReportLossProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("ctrlplane: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	durs := []struct {
		name string
		v    time.Duration
	}{
		{"command delay", c.CmdDelay},
		{"command jitter", c.CmdJitter},
		{"ack timeout", c.AckTimeout},
		{"report interval", c.ReportInterval},
		{"report delay", c.ReportDelay},
		{"report jitter", c.ReportJitter},
		{"stale limit", c.StaleLimit},
		{"heartbeat interval", c.HeartbeatInterval},
	}
	for _, d := range durs {
		if d.v < 0 {
			return fmt.Errorf("ctrlplane: negative %s %v", d.name, d.v)
		}
	}
	if c.SuspectMissed < 0 || c.DeadMissed < 0 {
		return fmt.Errorf("ctrlplane: negative hysteresis thresholds (%d suspect, %d dead)",
			c.SuspectMissed, c.DeadMissed)
	}
	return nil
}

// Preset returns the standard degraded-network mix for a mean one-way
// delay and a per-leg loss probability — the two knobs the ctrlplane
// experiment sweeps. Zero delay and loss return the zero Config
// (fully dormant).
func Preset(delay time.Duration, loss float64) Config {
	if delay <= 0 && loss <= 0 {
		return Config{}
	}
	if loss > 1 {
		loss = 1
	}
	if delay < 0 {
		delay = 0
	}
	return Config{
		CmdDelay:       delay,
		CmdJitter:      delay / 2,
		CmdLossProb:    loss,
		ReportDelay:    delay,
		ReportJitter:   delay / 2,
		ReportLossProb: loss,
	}
}

// Status is a host's inferred liveness.
type Status int

const (
	// Alive — heartbeats current; the host is trusted.
	Alive Status = iota
	// Suspect — SuspectMissed beats missed. The host keeps its VMs in
	// the manager's books (they must not be double-placed — the
	// suspicion may be false) but receives no new work.
	Suspect
	// Dead — DeadMissed further beats missed; the manager plans around
	// the host entirely until a beat resumes.
	Dead
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// CommandKind identifies an actuation order.
type CommandKind int

const (
	// CmdSleep parks a host in a sleep state.
	CmdSleep CommandKind = iota
	// CmdWake brings a sleeping host back.
	CmdWake
	// CmdMigrate starts a live migration.
	CmdMigrate
)

func (k CommandKind) String() string {
	switch k {
	case CmdSleep:
		return "sleep"
	case CmdWake:
		return "wake"
	case CmdMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("CommandKind(%d)", int(k))
	}
}

// Command is one sequence-numbered actuation order in flight.
type Command struct {
	Seq  uint64
	Kind CommandKind
	// Host is the power-command target (CmdSleep/CmdWake).
	Host       host.ID
	SleepState power.State
	// VM and Dst describe a CmdMigrate.
	VM  vm.ID
	Dst host.ID
}

// Snapshot is one host telemetry report as the manager last received
// it.
type Snapshot struct {
	// At is the measurement time (publication), not the arrival time;
	// age is measured against it.
	At     sim.Time
	Util   float64
	PowerW float64
	VMs    int
	// Valid is false until the first report lands.
	Valid bool
}

type pendingCmd struct {
	cmd      Command
	attempts int
	done     bool
}

// Plane is the message layer between one manager and its cluster. Like
// everything else in the simulator it is single-threaded: one plane per
// engine, driven entirely by engine events.
type Plane struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	cfg Config
	// base preserves the construction-time impairment knobs so a
	// scenario partition or degradation window can be lifted again
	// (RestoreImpairment).
	base Config
	rng  *sim.RNG
	ctrs *telemetry.Counters

	// Sender-side command state: outstanding commands by sequence
	// number plus per-target indices so the manager can avoid issuing
	// duplicates while one is in flight.
	nextSeq     uint64
	pending     map[uint64]*pendingCmd
	hostPending []int // outstanding power commands per host (ID-1)
	vmPending   map[vm.ID]int
	// Receiver-side dedup: first-execution result by sequence number,
	// re-acked verbatim on duplicate delivery.
	applied map[uint64]error

	// Manager-visible stale view (ID-1 indexed).
	snaps    []Snapshot
	lastBeat []sim.Time
	status   []Status

	onResult   func(Command, error)
	onLiveness func(host.ID, Status)
	started    bool

	// Callbacks bound once at Start, so the per-host messages and the
	// sweeps that send them schedule without allocating: a method value
	// or a closure built at the call site would allocate on every send.
	// beats[i] delivers host i+1's heartbeat; a report carries its
	// snapshot in a pooled message (freeReports) whose callback is
	// bound when the message is first made.
	beats                               []func()
	freeReports                         []*report
	telemetryFn, heartbeatFn, monitorFn func()
}

// report is one telemetry report in flight. The message is recycled on
// delivery, and deliver is bound once into fn, so a report costs no
// allocation once the free list is warm.
type report struct {
	p    *Plane
	id   host.ID
	snap Snapshot
	fn   func()
}

// deliver lands the report and returns the message to its plane.
func (r *report) deliver() {
	r.p.deliverSnapshot(r.id, r.snap)
	r.p.freeReports = append(r.p.freeReports, r)
}

// New builds a plane over the cluster, forking the engine's RNG so
// message-layer decisions consume an independent substream. cfg must be
// Enabled() and valid; constructing a plane for a dormant configuration
// is a caller bug because the fork alone perturbs the engine's stream.
// Counters (typically the manager's) receive the plane's telemetry;
// nil allocates a private set.
func New(eng *sim.Engine, cl *cluster.Cluster, cfg Config, ctrs *telemetry.Counters) (*Plane, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("ctrlplane: refusing to build a plane for a dormant config")
	}
	if ctrs == nil {
		ctrs = telemetry.NewCounters()
	}
	n := len(cl.Hosts())
	return &Plane{
		eng:         eng,
		cl:          cl,
		cfg:         cfg,
		base:        cfg,
		rng:         eng.RNG().Fork(),
		ctrs:        ctrs,
		nextSeq:     1,
		pending:     make(map[uint64]*pendingCmd),
		hostPending: make([]int, n),
		vmPending:   make(map[vm.ID]int),
		applied:     make(map[uint64]error),
		snaps:       make([]Snapshot, n),
		lastBeat:    make([]sim.Time, n),
		status:      make([]Status, n),
	}, nil
}

// Config returns the plane's effective (defaulted) configuration.
func (p *Plane) Config() Config { return p.cfg }

// SetImpairment replaces the six Preset-shaped network knobs (command
// and report delay, jitter, loss) at runtime — scenario ctrl-degrade
// events. Timeouts, retry budgets, heartbeat cadence and liveness
// hysteresis keep their construction-time values. Deterministic for
// the same reason faults.Tune is: every send reads the config at its
// own event time, inside the engine.
func (p *Plane) SetImpairment(delay time.Duration, loss float64) {
	if delay < 0 {
		delay = 0
	}
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	p.cfg.CmdDelay = delay
	p.cfg.CmdJitter = delay / 2
	p.cfg.CmdLossProb = loss
	p.cfg.ReportDelay = delay
	p.cfg.ReportJitter = delay / 2
	p.cfg.ReportLossProb = loss
}

// Partition severs the plane completely: every command and report leg
// is lost until RestoreImpairment. Heartbeats stop arriving, so the
// liveness monitor will walk every host to Suspect and then Dead at
// its configured hysteresis.
func (p *Plane) Partition() {
	p.cfg.CmdLossProb = 1
	p.cfg.ReportLossProb = 1
}

// RestoreImpairment puts the six network knobs back to their
// construction-time values, ending a Partition or SetImpairment
// window.
func (p *Plane) RestoreImpairment() {
	p.cfg.CmdDelay = p.base.CmdDelay
	p.cfg.CmdJitter = p.base.CmdJitter
	p.cfg.CmdLossProb = p.base.CmdLossProb
	p.cfg.ReportDelay = p.base.ReportDelay
	p.cfg.ReportJitter = p.base.ReportJitter
	p.cfg.ReportLossProb = p.base.ReportLossProb
}

// OnCommandResult registers the single sender-side completion callback:
// it fires exactly once per command, with nil on an acked success, the
// host's error on an acked rejection, or ErrLost after retry
// exhaustion.
func (p *Plane) OnCommandResult(fn func(Command, error)) { p.onResult = fn }

// OnLiveness registers the liveness-transition callback.
func (p *Plane) OnLiveness(fn func(host.ID, Status)) { p.onLiveness = fn }

// Start schedules the telemetry agents, the heartbeat publishers and
// the liveness monitor. Call it once, after the cluster's hosts exist,
// so event ordering is deterministic.
func (p *Plane) Start() {
	if p.started {
		return
	}
	p.started = true
	p.beats = make([]func(), len(p.status))
	for i := range p.beats {
		id := host.ID(i + 1)
		p.beats[i] = func() { p.recvBeat(id) }
	}
	p.telemetryFn, p.heartbeatFn, p.monitorFn = p.telemetrySweep, p.heartbeatSweep, p.monitorSweep
	p.eng.AfterFunc(p.cfg.ReportInterval, p.telemetryFn)
	p.eng.AfterFunc(p.cfg.HeartbeatInterval, p.heartbeatFn)
	p.eng.AfterFunc(p.cfg.HeartbeatInterval, p.monitorFn)
}

// legDelay draws one leg's transit time. The jitter draw is skipped
// when jitter is zero so partial configurations leave the stream
// untouched.
func (p *Plane) legDelay(base, jitter time.Duration) time.Duration {
	return base + p.rng.DurationJitter(jitter)
}

// SendSleep queues a park order for the host.
func (p *Plane) SendSleep(id host.ID, st power.State) {
	p.send(Command{Kind: CmdSleep, Host: id, SleepState: st})
}

// SendWake queues a wake order for the host.
func (p *Plane) SendWake(id host.ID) {
	p.send(Command{Kind: CmdWake, Host: id})
}

// SendMigrate queues a migration order.
func (p *Plane) SendMigrate(vid vm.ID, dst host.ID) {
	p.send(Command{Kind: CmdMigrate, VM: vid, Dst: dst})
}

func (p *Plane) send(cmd Command) {
	cmd.Seq = p.nextSeq
	p.nextSeq++
	pd := &pendingCmd{cmd: cmd}
	p.pending[cmd.Seq] = pd
	switch cmd.Kind {
	case CmdSleep, CmdWake:
		p.hostPending[cmd.Host-1]++
	case CmdMigrate:
		p.vmPending[cmd.VM]++
	}
	p.transmit(pd)
}

// transmit sends one attempt of the command leg and arms its ack
// deadline. Drop and delay are drawn per leg in a fixed order so the
// substream is deterministic.
func (p *Plane) transmit(pd *pendingCmd) {
	pd.attempts++
	if pd.attempts > 1 {
		p.ctrs.Inc(CtrCmdRetries)
	}
	if p.rng.Bernoulli(p.cfg.CmdLossProb) {
		p.ctrs.Inc(CtrCmdDrops)
	} else {
		cmd := pd.cmd
		p.eng.AfterFunc(p.legDelay(p.cfg.CmdDelay, p.cfg.CmdJitter), func() { p.deliver(cmd) })
	}
	p.eng.AfterFunc(p.cfg.AckTimeout, func() { p.ackDeadline(pd) })
}

// ackDeadline fires when an attempt's ack window closes: retransmit
// while retries remain, otherwise abandon the command as lost.
func (p *Plane) ackDeadline(pd *pendingCmd) {
	if pd.done {
		return
	}
	p.ctrs.Inc(CtrCmdTimeouts)
	if pd.attempts > p.cfg.MaxCmdRetries {
		p.ctrs.Inc(CtrCmdLost)
		p.resolve(pd, ErrLost)
		return
	}
	p.transmit(pd)
}

// deliver is the host-side receipt of a command leg: execute on first
// delivery, suppress-and-re-ack on duplicates (idempotent re-issue).
func (p *Plane) deliver(cmd Command) {
	if res, ok := p.applied[cmd.Seq]; ok {
		p.ctrs.Inc(CtrCmdDupes)
		p.sendAck(cmd.Seq, res)
		return
	}
	err := p.execute(cmd)
	p.applied[cmd.Seq] = err
	p.sendAck(cmd.Seq, err)
}

func (p *Plane) execute(cmd Command) error {
	switch cmd.Kind {
	case CmdSleep:
		return p.cl.SleepHost(cmd.Host, cmd.SleepState)
	case CmdWake:
		return p.cl.WakeHost(cmd.Host)
	case CmdMigrate:
		return p.cl.StartMigration(cmd.VM, cmd.Dst)
	default:
		return fmt.Errorf("ctrlplane: unknown command kind %v", cmd.Kind)
	}
}

func (p *Plane) sendAck(seq uint64, result error) {
	if p.rng.Bernoulli(p.cfg.CmdLossProb) {
		p.ctrs.Inc(CtrAckDrops)
		return
	}
	p.eng.AfterFunc(p.legDelay(p.cfg.CmdDelay, p.cfg.CmdJitter), func() { p.recvAck(seq, result) })
}

// recvAck is the sender-side ack receipt. Acks for already-resolved
// commands (a retry's ack won the race, or the command was abandoned)
// are the stale-view case: they are counted and dropped so the
// completion callback fires exactly once.
func (p *Plane) recvAck(seq uint64, result error) {
	pd, ok := p.pending[seq]
	if !ok || pd.done {
		p.ctrs.Inc(CtrLateAcks)
		return
	}
	if result != nil {
		p.ctrs.Inc(CtrCmdNacks)
	}
	p.resolve(pd, result)
}

func (p *Plane) resolve(pd *pendingCmd, result error) {
	pd.done = true
	delete(p.pending, pd.cmd.Seq)
	switch pd.cmd.Kind {
	case CmdSleep, CmdWake:
		p.hostPending[pd.cmd.Host-1]--
	case CmdMigrate:
		if p.vmPending[pd.cmd.VM]--; p.vmPending[pd.cmd.VM] <= 0 {
			delete(p.vmPending, pd.cmd.VM)
		}
	}
	if p.onResult != nil {
		p.onResult(pd.cmd, result)
	}
}

// HostCmdPending reports whether a power command for the host is still
// unresolved — the manager must not issue another until it settles.
func (p *Plane) HostCmdPending(id host.ID) bool {
	if id < 1 || int(id) > len(p.hostPending) {
		return false
	}
	return p.hostPending[id-1] > 0
}

// MigrationPending reports whether a migration command for the VM is
// still unresolved.
func (p *Plane) MigrationPending(id vm.ID) bool { return p.vmPending[id] > 0 }

// telemetrySweep publishes one report per live host (ID order, so the
// drop/delay draws are deterministic) as one engine batch, then
// reschedules itself.
func (p *Plane) telemetrySweep() {
	now := p.eng.Now()
	b := p.eng.NewBatch()
	for _, h := range p.cl.Hosts() {
		mach := h.Machine()
		if mach.Crashed() {
			continue // a crashed host's agent publishes nothing
		}
		if p.rng.Bernoulli(p.cfg.ReportLossProb) {
			p.ctrs.Inc(CtrReportDrops)
			continue
		}
		r := p.newReport()
		r.id = h.ID()
		r.snap = Snapshot{
			At:     now,
			Util:   mach.Utilization(),
			PowerW: float64(mach.Power()),
			VMs:    h.NumVMs(),
			Valid:  true,
		}
		b.AfterFunc(p.legDelay(p.cfg.ReportDelay, p.cfg.ReportJitter), r.fn)
	}
	b.Commit()
	p.eng.AfterFunc(p.cfg.ReportInterval, p.telemetryFn)
}

// newReport takes a message from the free list, or makes one.
func (p *Plane) newReport() *report {
	if n := len(p.freeReports); n > 0 {
		r := p.freeReports[n-1]
		p.freeReports = p.freeReports[:n-1]
		return r
	}
	r := &report{p: p}
	r.fn = r.deliver
	return r
}

// deliverSnapshot lands a report; out-of-order arrivals never roll the
// view backwards.
func (p *Plane) deliverSnapshot(id host.ID, snap Snapshot) {
	cur := &p.snaps[id-1]
	if cur.Valid && cur.At >= snap.At {
		return
	}
	*cur = snap
}

// heartbeatSweep publishes one beat per live host as one engine batch
// and reschedules itself. Sleeping hosts still beat (their management
// controller stays powered); only crashed hosts fall silent.
func (p *Plane) heartbeatSweep() {
	b := p.eng.NewBatch()
	for _, h := range p.cl.Hosts() {
		if h.Machine().Crashed() {
			continue
		}
		if p.rng.Bernoulli(p.cfg.ReportLossProb) {
			p.ctrs.Inc(CtrBeatDrops)
			continue
		}
		b.AfterFunc(p.legDelay(p.cfg.ReportDelay, p.cfg.ReportJitter), p.beats[h.ID()-1])
	}
	b.Commit()
	p.eng.AfterFunc(p.cfg.HeartbeatInterval, p.heartbeatFn)
}

func (p *Plane) recvBeat(id host.ID) {
	i := int(id) - 1
	if now := p.eng.Now(); now > p.lastBeat[i] {
		p.lastBeat[i] = now
	}
	if p.status[i] != Alive {
		p.setStatus(id, Alive)
	}
}

// monitorSweep applies the missed-beat hysteresis in host-ID order and
// records the telemetry-age high-water mark, raising the counter once
// per sweep with the oldest valid snapshot's age.
func (p *Plane) monitorSweep() {
	now := p.eng.Now()
	suspectAfter := sim.Time(p.cfg.SuspectMissed) * sim.Time(p.cfg.HeartbeatInterval)
	deadAfter := suspectAfter + sim.Time(p.cfg.DeadMissed)*sim.Time(p.cfg.HeartbeatInterval)
	maxAge := -1 // the oldest valid snapshot's age in ms; -1 while none is valid
	for i := range p.status {
		id := host.ID(i + 1)
		gap := now - p.lastBeat[i]
		if p.status[i] == Alive && gap > suspectAfter {
			p.setStatus(id, Suspect)
		}
		if p.status[i] == Suspect && gap > deadAfter {
			p.setStatus(id, Dead)
		}
		if p.snaps[i].Valid {
			maxAge = max(maxAge, int(time.Duration(now-p.snaps[i].At).Milliseconds()))
		}
	}
	if maxAge >= 0 {
		p.ctrs.Max(CtrReportAgeMaxMS, maxAge)
	}
	p.eng.AfterFunc(p.cfg.HeartbeatInterval, p.monitorFn)
}

func (p *Plane) setStatus(id host.ID, s Status) {
	i := int(id) - 1
	if p.status[i] == s {
		return
	}
	p.status[i] = s
	switch s {
	case Suspect:
		p.ctrs.Inc(CtrSuspects)
	case Dead:
		p.ctrs.Inc(CtrDeaths)
	case Alive:
		p.ctrs.Inc(CtrRecoveries)
	}
	if p.onLiveness != nil {
		p.onLiveness(id, s)
	}
}

// Status returns the host's inferred liveness.
func (p *Plane) Status(id host.ID) Status {
	if id < 1 || int(id) > len(p.status) {
		return Alive
	}
	return p.status[id-1]
}

// LastSnapshot returns the host's most recent telemetry report (Valid
// false before the first report lands).
func (p *Plane) LastSnapshot(id host.ID) Snapshot {
	if id < 1 || int(id) > len(p.snaps) {
		return Snapshot{}
	}
	return p.snaps[id-1]
}

// SnapshotAge returns how stale the host's telemetry view is. The
// second result is false while no report has arrived yet.
func (p *Plane) SnapshotAge(id host.ID) (time.Duration, bool) {
	if id < 1 || int(id) > len(p.snaps) || !p.snaps[id-1].Valid {
		return 0, false
	}
	return time.Duration(p.eng.Now() - p.snaps[id-1].At), true
}

// Fresh reports whether the host's telemetry is recent enough to base
// a power-down decision on: a snapshot exists and its age is within
// StaleLimit. Hosts that have never reported are not fresh —
// conservative keep-on is the fallback.
func (p *Plane) Fresh(id host.ID) bool {
	age, ok := p.SnapshotAge(id)
	return ok && age <= p.cfg.StaleLimit
}
