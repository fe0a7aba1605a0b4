package core

import (
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// runScenario builds a cluster of nHosts 16-core/64GB hosts with one
// 4-vCPU/8GB VM per trace, runs the policy for horizon, and returns
// the pieces for inspection.
func runScenario(t *testing.T, nHosts int, traces []*workload.Trace, cfg Config, horizon time.Duration) (*cluster.Cluster, *Manager) {
	t.Helper()
	eng := sim.NewEngine(42)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range traces {
		on := host.ID(i%nHosts + 1)
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, on); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(horizon)
	cl.Flush()
	return cl, m
}

func flatTraces(n int, demand float64) []*workload.Trace {
	out := make([]*workload.Trace, n)
	for i := range out {
		out[i] = workload.Constant(demand)
	}
	return out
}

func TestNewManagerValidatesConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, _ := cluster.New(eng, cluster.Config{})
	bad := Config{Policy: DPMS3, TargetUtil: 2}
	if _, err := NewManager(cl, bad); err == nil {
		t.Fatal("accepted bad target util")
	}
	bad = Config{Policy: Policy{Name: "x", PowerManage: true, Consolidate: true}} // no sleep state
	if _, err := NewManager(cl, bad); err == nil {
		t.Fatal("accepted power-manage without sleep state")
	}
	bad = Config{Policy: DPMS3, WakeThreshold: 0.6, TargetUtil: 0.7}
	if _, err := NewManager(cl, bad); err == nil {
		t.Fatal("accepted wake threshold below target utilization")
	}
	bad = Config{Policy: DPMS3, Forecast: ForecastSpec{Kind: ForecastPeakWindow, Window: -time.Minute}}
	if _, err := NewManager(cl, bad); err == nil {
		t.Fatal("accepted a negative peak window")
	}
}

func TestPolicyPresetsValid(t *testing.T) {
	for _, p := range Policies() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", p.Name, err)
		}
	}
	if len(Policies()) != 4 {
		t.Fatalf("expected 4 preset policies")
	}
}

func TestStaticPolicyDoesNothing(t *testing.T) {
	cl, m := runScenario(t, 4, flatTraces(4, 1), Config{Policy: Static}, 2*time.Hour)
	st := m.Stats()
	if st.MigrationsLB+st.MigrationsConsolidation != 0 {
		t.Fatalf("static policy migrated: %+v", st)
	}
	entries, exits := cl.PowerActions()
	if entries+exits != 0 {
		t.Fatal("static policy touched power states")
	}
	if len(cl.AvailableHosts()) != 4 {
		t.Fatal("static policy changed host availability")
	}
}

func TestNoPMNeverSleeps(t *testing.T) {
	cl, m := runScenario(t, 4, flatTraces(8, 0.5), Config{Policy: NoPM}, 4*time.Hour)
	entries, _ := cl.PowerActions()
	if entries != 0 {
		t.Fatal("NoPM parked hosts")
	}
	if m.Stats().Sleeps+m.Stats().Wakes != 0 {
		t.Fatal("NoPM counted power actions")
	}
}

func TestDPMS3ConsolidatesLightLoad(t *testing.T) {
	// 8 VMs at 0.5 cores each = 4 cores total on 4×16-core hosts:
	// packs onto one host easily.
	cl, m := runScenario(t, 4, flatTraces(8, 0.5), Config{Policy: DPMS3}, 4*time.Hour)
	if got := len(cl.AvailableHosts()); got != 1 {
		t.Fatalf("available hosts = %d, want consolidation to 1", got)
	}
	st := m.Stats()
	if st.Sleeps != 3 {
		t.Fatalf("sleeps = %d, want 3", st.Sleeps)
	}
	if st.MigrationsConsolidation == 0 {
		t.Fatal("no consolidation migrations recorded")
	}
	// Parked hosts are in S3.
	for _, h := range cl.Hosts() {
		if !h.Available() && h.Machine().State() != power.S3 {
			t.Fatalf("host %d parked in %v, want S3", h.ID(), h.Machine().State())
		}
	}
	// SLA stays essentially intact (only migration downtime).
	agg := cl.AggregateSLA()
	if agg.Satisfaction() < 0.99 {
		t.Fatalf("satisfaction = %v after consolidation", agg.Satisfaction())
	}
}

func TestDPMS5ParksInS5(t *testing.T) {
	cl, _ := runScenario(t, 4, flatTraces(8, 0.5), Config{Policy: DPMS5}, 4*time.Hour)
	parked := 0
	for _, h := range cl.Hosts() {
		if h.Machine().State() == power.S5 {
			parked++
		}
	}
	if parked != 3 {
		t.Fatalf("S5-parked hosts = %d, want 3", parked)
	}
}

func TestDPMSavesEnergyVsStatic(t *testing.T) {
	traces := flatTraces(8, 0.5)
	clStatic, _ := runScenario(t, 4, traces, Config{Policy: Static}, 6*time.Hour)
	clDPM, _ := runScenario(t, 4, traces, Config{Policy: DPMS3}, 6*time.Hour)
	if clDPM.TotalEnergy() >= clStatic.TotalEnergy() {
		t.Fatalf("DPM energy %v not below static %v", clDPM.TotalEnergy(), clStatic.TotalEnergy())
	}
	// Light load on 4 hosts: DPM should save a lot (3 of 4 hosts
	// parked most of the time).
	ratio := float64(clDPM.TotalEnergy()) / float64(clStatic.TotalEnergy())
	if ratio > 0.6 {
		t.Fatalf("DPM/static energy ratio = %v, want well under 0.6", ratio)
	}
}

func TestWakeOnPressure(t *testing.T) {
	// Load starts tiny then jumps to demand that needs several hosts.
	samples := make([]float64, 240)
	for i := range samples {
		if i < 120 {
			samples[i] = 0.25
		} else {
			samples[i] = 4 // per VM
		}
	}
	tr, _ := workload.NewTrace(time.Minute, samples)
	traces := make([]*workload.Trace, 8)
	for i := range traces {
		traces[i] = tr
	}
	// 8 VMs × 4 cores = 32 cores at peak: needs ≥2 hosts at target 0.7.
	cfg := Config{Policy: DPMS3, Period: 2 * time.Minute, Forecast: ForecastSpec{Kind: ForecastLastValue}}
	cl, m := runScenario(t, 4, traces, cfg, 4*time.Hour)
	st := m.Stats()
	if st.Sleeps == 0 {
		t.Fatal("never consolidated during the quiet phase")
	}
	if st.Wakes == 0 {
		t.Fatal("never woke hosts for the load jump")
	}
	if got := len(cl.AvailableHosts()); got < 3 {
		t.Fatalf("available hosts at peak = %d, want ≥3", got)
	}
	// Demand is eventually fully served.
	if cl.DeliveredSeries().At(3*time.Hour) < 31 {
		t.Fatalf("delivered at steady peak = %v, want ~32", cl.DeliveredSeries().At(3*time.Hour))
	}
}

func TestLoadBalancingSpreadsHotHost(t *testing.T) {
	// All 6 VMs (4 cores demand each = 24 > 16 cores) start on host 1;
	// NoPM must offload some.
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(4)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: NoPM, Period: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Hour)
	cl.Flush()

	if m.Stats().MigrationsLB == 0 {
		t.Fatal("load balancer never moved a VM off the hot host")
	}
	h1, _ := cl.Host(1)
	if h1.NumVMs() >= 6 {
		t.Fatal("hot host not relieved")
	}
	// After balancing, total demand 24 on 48 cores is fully served.
	if got := cl.DeliveredSeries().At(55 * time.Minute); got < 23.9 {
		t.Fatalf("delivered = %v, want 24", got)
	}
}

// TestLoadBalancingUsesLastSlot pins the free-slot skip in balanceLoad:
// a hot host with 3 of its 4 migration slots busy still sheds a VM
// through the last one, and then sheds no more.
func TestLoadBalancingUsesLastSlot(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 128}); err != nil {
			t.Fatal(err)
		}
	}
	// Host 1 carries 32 cores of demand on 16.
	for i := 0; i < 8; i++ {
		if _, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: workload.Constant(4)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: NoPM})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	for i := 0; i < 3; i++ {
		if err := cl.StartMigration(vm.ID(i+1), host.ID(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	migs := cl.Migrations()
	if migs.HostLoad(1) != 3 || !migs.HasSlot(1) {
		t.Fatalf("host 1 has %d migrations in flight, HasSlot %v; want 3 and a free slot", migs.HostLoad(1), migs.HasSlot(1))
	}
	m.noteInvocation()
	m.balanceLoad()
	if m.stats.MigrationsLB != 1 {
		t.Fatalf("load balancer started %d moves off the hot host, want 1 through its last slot", m.stats.MigrationsLB)
	}
	if migs.HostLoad(1) != 4 || migs.HasSlot(1) {
		t.Fatalf("host 1 has %d migrations in flight, HasSlot %v; want 4 and no free slot", migs.HostLoad(1), migs.HasSlot(1))
	}
	m.noteInvocation()
	m.balanceLoad()
	if m.stats.MigrationsLB != 1 || m.stats.MigrationsFailed != 0 {
		t.Fatalf("saturated hot host: %d LB moves, %d refusals; want 1 and 0", m.stats.MigrationsLB, m.stats.MigrationsFailed)
	}
}

func TestMinActiveRespected(t *testing.T) {
	cfg := Config{Policy: DPMS3, MinActive: 2}
	cl, _ := runScenario(t, 4, flatTraces(2, 0.25), cfg, 4*time.Hour)
	if got := len(cl.AvailableHosts()); got != 2 {
		t.Fatalf("available hosts = %d, want MinActive=2", got)
	}
}

func TestSpareHostsKeptAwake(t *testing.T) {
	cfg := Config{Policy: DPMS3, SpareHosts: 1}
	cl, _ := runScenario(t, 4, flatTraces(8, 0.5), cfg, 4*time.Hour)
	// Packing needs 1 host; spare adds 1.
	if got := len(cl.AvailableHosts()); got != 2 {
		t.Fatalf("available hosts = %d, want 2 (1 packed + 1 spare)", got)
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	// Demand oscillating inside the hysteresis band must not trigger
	// park/wake cycles. The band: packing at TargetUtil (0.7) never
	// frees a host at 18 cores on 2 hosts, and demand of 26 cores
	// stays below the wake threshold (0.85 × 32 = 27.2).
	samples := make([]float64, 480)
	for i := range samples {
		if i%20 < 10 {
			samples[i] = 18.0 / 8
		} else {
			samples[i] = 26.0 / 8
		}
	}
	tr, _ := workload.NewTrace(time.Minute, samples)
	traces := make([]*workload.Trace, 8)
	for i := range traces {
		traces[i] = tr
	}
	cfg := Config{Policy: DPMS3, Forecast: ForecastSpec{Kind: ForecastLastValue}}
	cl, m := runScenario(t, 2, traces, cfg, 8*time.Hour)
	entries, exits := cl.PowerActions()
	if entries+exits != 0 {
		t.Fatalf("hysteresis band leaked: %d entries, %d exits (stats %+v)", entries, exits, m.Stats())
	}
}

func TestManagerStartIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, _ := cluster.New(eng, cluster.Config{})
	cl.AddHost(host.Config{Cores: 16, MemoryGB: 64})
	m, err := NewManager(cl, Config{Policy: NoPM})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	m.Start() // second call must not double the control loop
	eng.RunUntil(time.Hour)
	if m.Stats().ControlSteps > 13 { // 60/5 + first
		t.Fatalf("control steps = %d; double loop suspected", m.Stats().ControlSteps)
	}
}

func TestConfigDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, _ := cluster.New(eng, cluster.Config{})
	m, err := NewManager(cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.Policy.Name != DPMS3.Name {
		t.Fatalf("default policy = %q", cfg.Policy.Name)
	}
	if cfg.Period != 5*time.Minute || cfg.TargetUtil != 0.70 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Forecast.Kind != ForecastPeakWindow {
		t.Fatalf("default forecast = %v", cfg.Forecast.Kind)
	}
}
