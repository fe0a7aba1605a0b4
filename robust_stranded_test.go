package agilepower

import (
	"testing"
	"time"

	"agilepower/internal/vm"
)

// TestRobustSeed24StrandedAwaitRepair pins why `sweep -exp robust
// -quick -seed 24` reports 6 stranded VMs: in the dpm-s5 cell at a 10%
// fault rate, host 3 crashes at 07:41:56 with a repair of 36m32s, so
// its six VMs are still waiting for it at the 8 h horizon. They are
// not lost: once the run moves past the repair, every one of them runs
// again. The experiment lacks a closing fault freeze (ops-chaos has
// one); adding it changes report bytes, so it is left to a change that
// regenerates the goldens.
func TestRobustSeed24StrandedAwaitRepair(t *testing.T) {
	fc := FaultPreset(0.10)
	sc := Scenario{
		Name:    "robust-dpm-s5-100",
		Hosts:   8,
		VMs:     MixedFleet(40, 24),
		Horizon: 8 * time.Hour,
		Seed:    24,
		Manager: ManagerConfig{Policy: DPMS5},
		Faults:  &fc,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StrandedVMs != 6 {
		t.Fatalf("result reports %d stranded VMs, want the 6 of the robust row", res.StrandedVMs)
	}

	se, err := sc.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := se.RunUntil(sc.Horizon); err != nil {
		t.Fatal(err)
	}
	cl := se.cl
	if n := cl.StrandedCount(); n != 6 {
		t.Fatalf("%d VMs stranded at the horizon, want 6", n)
	}
	// Every stranded VM sits on a crashed host whose repair ends after
	// the horizon.
	var stranded []vm.ID
	repaired := time.Duration(0)
	for _, h := range cl.Hosts() {
		m := h.Machine()
		if !m.Crashed() || h.NumVMs() == 0 {
			continue
		}
		end := time.Duration(m.TransitionEnd())
		if end <= sc.Horizon {
			t.Errorf("host %d holds %d VMs with its repair due at %v, before the %v horizon",
				h.ID(), h.NumVMs(), end, sc.Horizon)
		}
		repaired = max(repaired, end)
		stranded = append(stranded, h.VMs()...)
	}
	if len(stranded) != cl.StrandedCount() {
		t.Fatalf("crashed hosts hold %d VMs, stranded count is %d", len(stranded), cl.StrandedCount())
	}

	// Past the repair nothing is stranded, and each of the VMs is placed
	// on a serving host and receives work again.
	delivered := make([]float64, len(stranded))
	for i, id := range stranded {
		sla, _ := cl.SLA(id)
		delivered[i] = sla.DeliveredCoreSeconds()
	}
	if err := se.RunUntil(repaired + 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := cl.StrandedCount(); n != 0 {
		t.Fatalf("%d VMs still stranded 15 min after the last repair (%v)", n, repaired)
	}
	for i, id := range stranded {
		on, ok := cl.Placement(id)
		if !ok {
			t.Errorf("VM %d is no longer placed after the repair", id)
			continue
		}
		h, _ := cl.Host(on)
		if !h.Machine().Available() {
			t.Errorf("VM %d sits on host %d, which is not serving after the repair", id, on)
		}
		sla, _ := cl.SLA(id)
		if sla.DeliveredCoreSeconds() <= delivered[i] {
			t.Errorf("VM %d received no work after the repair", id)
		}
	}
}
