package power

import (
	"errors"
	"math"
	"testing"
	"time"

	"agilepower/internal/sim"
)

func newTestMachine(t *testing.T) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine(1)
	m, err := NewMachine(eng, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestNewMachineStartsOnAndIdle(t *testing.T) {
	_, m := newTestMachine(t)
	if m.State() != S0 || m.Phase() != Settled {
		t.Fatalf("new machine in %v/%v, want S0/settled", m.State(), m.Phase())
	}
	if !m.Available() {
		t.Fatal("new machine should be available")
	}
	if m.Utilization() != 0 {
		t.Fatal("new machine should be idle")
	}
}

func TestNewMachineRejectsInvalidProfile(t *testing.T) {
	p := DefaultProfile()
	p.PeakPower = -1
	if _, err := NewMachine(sim.NewEngine(1), p); err == nil {
		t.Fatal("NewMachine accepted invalid profile")
	}
}

func TestEnergyIntegrationAtConstantUtil(t *testing.T) {
	eng, m := newTestMachine(t)
	m.SetUtilization(0.5) // 200 W on the linear curve
	eng.RunUntil(100 * time.Second)
	got := float64(m.Energy())
	want := 200.0 * 100
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestEnergyIntegrationAcrossUtilChanges(t *testing.T) {
	eng, m := newTestMachine(t)
	m.SetUtilization(1.0) // 250 W
	eng.RunUntil(10 * time.Second)
	m.SetUtilization(0.5) // 200 W
	eng.RunUntil(30 * time.Second)
	want := 250.0*10 + 200.0*20
	if got := float64(m.Energy()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestDeepIdleEnergyAtZeroUtil(t *testing.T) {
	eng, m := newTestMachine(t)
	eng.RunUntil(50 * time.Second)
	want := 120.0 * 50 // deep-idle watts
	if got := float64(m.Energy()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("idle energy = %v J, want %v J", got, want)
	}
}

func TestSleepTransitionLifecycle(t *testing.T) {
	eng, m := newTestMachine(t)
	var settledIn []State
	m.OnSettled(func(s State) { settledIn = append(settledIn, s) })

	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	if m.Phase() != Entering || m.Target() != S3 {
		t.Fatalf("phase/target = %v/%v, want entering/S3", m.Phase(), m.Target())
	}
	if m.Available() {
		t.Fatal("machine available during suspend")
	}
	// Entry latency for S3 is 8s.
	eng.RunUntil(8 * time.Second)
	if m.State() != S3 || m.Phase() != Settled {
		t.Fatalf("after entry latency: %v/%v, want S3/settled", m.State(), m.Phase())
	}
	if err := m.Wake(); err != nil {
		t.Fatal(err)
	}
	// Exit latency 15s.
	eng.RunUntil(23 * time.Second)
	if m.State() != S0 || !m.Available() {
		t.Fatalf("after wake: %v/%v", m.State(), m.Phase())
	}
	if len(settledIn) != 2 || settledIn[0] != S3 || settledIn[1] != S0 {
		t.Fatalf("settle callbacks = %v, want [S3 S0]", settledIn)
	}
}

func TestSleepCycleEnergyAccounting(t *testing.T) {
	eng, m := newTestMachine(t)
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(8 * time.Second) // entry done
	eng.RunUntil(108 * time.Second)
	if err := m.Wake(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(123 * time.Second)
	// entry: 8s * 150W; parked: 100s * 12W; exit: 15s * 220W
	want := 8.0*150 + 100.0*12 + 15.0*220
	if got := float64(m.Energy()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("cycle energy = %v J, want %v J", got, want)
	}
	st := m.Stats()
	if st.Entries[S3] != 1 || st.Exits[S3] != 1 {
		t.Fatalf("entries/exits = %d/%d, want 1/1", st.Entries[S3], st.Exits[S3])
	}
	if st.TransitTime != 23*time.Second {
		t.Fatalf("transit time = %v, want 23s", st.TransitTime)
	}
	wantTE := 8.0*150 + 15.0*220
	if math.Abs(float64(st.TransitionE)-wantTE) > 1e-6 {
		t.Fatalf("transition energy = %v, want %v", st.TransitionE, wantTE)
	}
	if st.TimeIn[S3] != 100*time.Second {
		t.Fatalf("time in S3 = %v, want 100s", st.TimeIn[S3])
	}
}

func TestSleepRejectsWhileTransitioning(t *testing.T) {
	_, m := newTestMachine(t)
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep(S3); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Sleep = %v, want ErrBusy", err)
	}
	if err := m.Wake(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Wake during suspend = %v, want ErrBusy", err)
	}
}

func TestSleepRejectsNonSleepState(t *testing.T) {
	_, m := newTestMachine(t)
	if err := m.Sleep(S0); !errors.Is(err, ErrNotOn) {
		t.Fatalf("Sleep(S0) = %v, want ErrNotOn", err)
	}
}

func TestSleepRejectsUnsupportedState(t *testing.T) {
	p := DefaultProfile()
	delete(p.Sleep, S5)
	m, err := NewMachine(sim.NewEngine(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep(S5); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Sleep(S5) = %v, want ErrUnsupported", err)
	}
}

func TestWakeRejectsWhenOn(t *testing.T) {
	_, m := newTestMachine(t)
	if err := m.Wake(); !errors.Is(err, ErrNotOn) {
		t.Fatalf("Wake while on = %v, want ErrNotOn", err)
	}
}

func TestSleepFromSleepRejected(t *testing.T) {
	eng, m := newTestMachine(t)
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if err := m.Sleep(S5); !errors.Is(err, ErrNotOn) {
		t.Fatalf("Sleep from S3 = %v, want ErrNotOn", err)
	}
}

func TestUtilizationForcedZeroWhileSleeping(t *testing.T) {
	eng, m := newTestMachine(t)
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	m.SetUtilization(0.9)
	if m.Utilization() != 0 {
		t.Fatalf("sleeping machine utilization = %v, want 0", m.Utilization())
	}
}

func TestUtilizationClamped(t *testing.T) {
	_, m := newTestMachine(t)
	m.SetUtilization(2)
	if m.Utilization() != 1 {
		t.Fatalf("util = %v, want clamp to 1", m.Utilization())
	}
	m.SetUtilization(-1)
	if m.Utilization() != 0 {
		t.Fatalf("util = %v, want clamp to 0", m.Utilization())
	}
}

func TestPowerDuringPhases(t *testing.T) {
	eng, m := newTestMachine(t)
	m.SetUtilization(1)
	if m.Power() != 250 {
		t.Fatalf("busy power = %v, want 250", m.Power())
	}
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	if m.Power() != 150 {
		t.Fatalf("entry power = %v, want 150", m.Power())
	}
	eng.RunUntil(8 * time.Second)
	if m.Power() != 12 {
		t.Fatalf("parked power = %v, want 12", m.Power())
	}
	if err := m.Wake(); err != nil {
		t.Fatal(err)
	}
	if m.Power() != 220 {
		t.Fatalf("exit power = %v, want 220", m.Power())
	}
}

func TestTransitionEndVisible(t *testing.T) {
	eng, m := newTestMachine(t)
	eng.RunUntil(5 * time.Second)
	if err := m.Sleep(S3); err != nil {
		t.Fatal(err)
	}
	if m.TransitionEnd() != 13*time.Second {
		t.Fatalf("transition end = %v, want 13s", m.TransitionEnd())
	}
}

func TestS5RoundTripSlow(t *testing.T) {
	eng, m := newTestMachine(t)
	if err := m.Sleep(S5); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(45 * time.Second)
	if m.State() != S5 {
		t.Fatalf("state = %v after 45s, want S5", m.State())
	}
	if err := m.Wake(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(234 * time.Second)
	if m.State() != S5 || m.Phase() != Exiting {
		t.Fatalf("S5 boot finished too early: %v/%v", m.State(), m.Phase())
	}
	eng.RunUntil(235 * time.Second)
	if !m.Available() {
		t.Fatal("machine not available after full S5 boot")
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	eng, m := newTestMachine(t)
	eng.RunUntil(time.Second)
	st := m.Stats()
	st.TimeIn[S0] = 0
	st.Entries[S3] = 99
	st2 := m.Stats()
	if st2.TimeIn[S0] != time.Second || st2.Entries[S3] == 99 {
		t.Fatal("Stats snapshot shares counters with machine")
	}
}
