package agilepower

import (
	"math"
	"reflect"
	"testing"
	"time"

	"agilepower/internal/sim"
)

// runFullScanOracle runs sc as Scenario.Run does, except that the
// cluster's full-scan oracle is switched on before Start: every
// evaluation pass refreshes every host, which is what the event-driven
// tick must reproduce bit for bit.
func runFullScanOracle(t *testing.T, sc Scenario) *Result {
	t.Helper()
	s := sc.withDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(s.Seed)
	profile := resolvedProfile(s)
	cl, hosts, cores, err := buildWorld(eng, s, profile)
	if err != nil {
		t.Fatal(err)
	}
	cl.UseFullScanOracle()
	se, err := startSession(s, eng, cl, profile, hosts, cores)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.RunUntil(s.Horizon); err != nil {
		t.Fatal(err)
	}
	return se.Result()
}

// sameResultBits compares two runs field by field: the headline
// metrics and the event log (assertSameResult), every sample of the
// four series bit for bit, and every remaining field, except HostEvals,
// which counts the work the two evaluation paths did.
func sameResultBits(t *testing.T, a, b *Result) {
	t.Helper()
	assertSameResult(t, a, b)
	for _, s := range []struct {
		name string
		a, b *Series
	}{{"power", a.Power, b.Power}, {"demand", a.Demand, b.Demand},
		{"delivered", a.Delivered, b.Delivered}, {"active hosts", a.ActiveHosts, b.ActiveHosts}} {
		ap, bp := s.a.Points(), s.b.Points()
		if len(ap) != len(bp) {
			t.Fatalf("%s series: %d samples vs %d", s.name, len(ap), len(bp))
		}
		for i := range ap {
			if ap[i].At != bp[i].At || math.Float64bits(ap[i].Value) != math.Float64bits(bp[i].Value) {
				t.Fatalf("%s series: sample %d differs: %+v vs %+v", s.name, i, ap[i], bp[i])
			}
		}
	}
	ra, rb := *a, *b
	ra.Events, rb.Events = nil, nil
	ra.Power, ra.Demand, ra.Delivered, ra.ActiveHosts = nil, nil, nil, nil
	rb.Power, rb.Demand, rb.Delivered, rb.ActiveHosts = nil, nil, nil, nil
	ra.HostEvals, rb.HostEvals = 0, 0
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("results differ:\n%+v\n%+v", ra, rb)
	}
}

// TestHyperscaleQuickMatchesFullScan replays the five runs of
// `sweep -exp hyper -quick` — the four policies on HyperscaleFleet(4096)
// and dpm-s3 on DeepTroughFleet, 256 hosts for an hour — once as the
// experiment runs them (16 shards) and once on the full-scan oracle
// (2 shards), and compares each Result bit for bit. This is the
// headline identity at experiment scale: the event-driven tick, the
// analytic integration of quiescent hosts and the bounded telemetry
// produce exactly what rescanning every host on every pass does. The
// oracle is reachable only from tests (Cluster.UseFullScanOracle), so
// no scenario, file, flag or request can select it.
func TestHyperscaleQuickMatchesFullScan(t *testing.T) {
	if testing.Short() {
		t.Skip("ten quick-mode hyperscale runs; skipped with -short")
	}
	base := Scenario{
		Name: "hyperscale", Hosts: 256, HostCores: 16, HostMemoryGB: 256,
		VMs: HyperscaleFleet(4096, 1), Horizon: time.Hour, Seed: 1,
		Shards: 16, TelemetryCap: 4096,
	}
	var runs []Scenario
	for _, p := range Policies() {
		sc := base
		sc.Manager.Policy = p
		runs = append(runs, sc)
	}
	trough := base
	trough.Name = "hyperscale-trough"
	trough.VMs = DeepTroughFleet(4096, 2)
	trough.Manager.Policy = DPMS3
	runs = append(runs, trough)
	for _, sc := range runs {
		t.Run(sc.Name+"/"+sc.Manager.Policy.Name, func(t *testing.T) {
			got, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			oracle := sc
			oracle.Shards = 2
			want := runFullScanOracle(t, oracle)
			sameResultBits(t, want, got)
			if slots := want.EvalTicks * int64(want.Hosts); want.HostEvals != slots {
				t.Fatalf("oracle evaluated %d host-slots, want every host at each of %d passes (%d)",
					want.HostEvals, want.EvalTicks, slots)
			}
			if got.HostEvals >= want.HostEvals {
				t.Fatalf("event-driven tick evaluated %d host-slots, the oracle %d: nothing skipped",
					got.HostEvals, want.HostEvals)
			}
			t.Logf("%d passes: %d host-slots evaluated of the oracle's %d", got.EvalTicks, got.HostEvals, want.HostEvals)
		})
	}
}
