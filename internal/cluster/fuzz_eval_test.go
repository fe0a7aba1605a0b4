package cluster

import (
	"fmt"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// fuzzHosts is the fleet size of runFuzzProgram.
const fuzzHosts = 6

// Program opcodes. A program is a sequence of steps of two bytes each,
// an opcode (mod fuzzOps) and its argument.
const (
	opAdvance = iota // run the clock 0–15 × 20 s (0: a burst on one instant)
	opMigrate        // StartMigration(vm(arg), host(arg>>4))
	opCrash          // CrashHost(host(arg)), repaired 1–4 minutes later
	opPark           // SleepHost(host(arg)) into S3, or S5 when arg&16
	opWake           // WakeHost(host(arg))
	opDVFS           // host(arg).SetFrequency(one of three points)
	opSurge          // ScaleDemandPrefix("web", "db" or "") by 0.5–2.5, or reset to 1
	opArrive         // AddPendingVM with a trace chosen by arg
	opPlace          // PlaceVM(a pending VM, host(arg>>4))
	opDepart         // RemoveVM(vm(arg))
	opFlush          // Flush mid-run
	fuzzOps
)

// fuzzTrace returns one of the demand shapes the fleet mixes: a
// one-sample constant (never due), short traces at 30 s and 2 min with
// runs of equal samples (due on sample ends that are not changes), and
// a 15-minute diurnal.
func fuzzTrace(k int, rng *sim.RNG) *workload.Trace {
	switch k % 4 {
	case 0:
		return workload.Constant(0.5 + float64(k%3))
	case 1:
		tr, _ := workload.NewTrace(30*time.Second, []float64{1, 1, 3, 0.5, 0.5, 2})
		return tr
	case 2:
		tr, _ := workload.NewTrace(2*time.Minute, []float64{2, 0.25, 0.25, 0.25, 4})
		return tr
	default:
		return workload.Diurnal(rng.Fork(), workload.DiurnalSpec{
			Interval: 15 * time.Minute, BaseCores: 0.2, PeakCores: 3, NoiseFrac: 0.1,
		})
	}
}

// fuzzFleet lists the trace shapes (fuzzTrace kinds) of each host's
// three residents in VM-ID order; host 6 starts empty. Each of the
// first, middle and last resident is the only one that changes on some
// host, so a deadline that ignores any one of them goes stale.
var fuzzFleet = [][3]int{{0, 0, 1}, {2, 0, 0}, {3, 1, 0}, {0, 3, 0}, {1, 2, 3}}

// runFuzzProgram builds the fuzzFleet and drives it through prog's
// steps on the event-driven tick, or on the full-scan oracle
// (fullScan). It returns the cluster and one line per step with the
// step's outcome, which must match between the two paths too.
func runFuzzProgram(t *testing.T, prog []byte, fullScan bool) (*Cluster, []string) {
	t.Helper()
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.fullScan = fullScan
	for h := 0; h < fuzzHosts; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(11)
	for h, kinds := range fuzzFleet {
		for _, kind := range kinds {
			name := fmt.Sprintf("db-%d", c.MaxVMID()+1)
			if c.MaxVMID()%2 == 0 {
				name = fmt.Sprintf("web-%d", c.MaxVMID()+1)
			}
			cfg := vm.Config{Name: name, VCPUs: 4, MemoryGB: 4, Trace: fuzzTrace(kind, rng)}
			if _, err := c.AddVM(cfg, host.ID(h+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Start()

	var outcomes []string
	note := func(step int, outcome any) {
		outcomes = append(outcomes, fmt.Sprintf("%d@%v: %v", step, eng.Now(), outcome))
	}
	hostOf := func(b byte) host.ID { return host.ID(int(b)%fuzzHosts + 1) }
	vmOf := func(b byte) vm.ID {
		if c.MaxVMID() == 0 {
			return 1
		}
		return vm.ID(int(b)%int(c.MaxVMID()) + 1)
	}
	for k := 0; k+1 < len(prog); k += 2 {
		arg := prog[k+1]
		switch prog[k] % fuzzOps {
		case opAdvance:
			eng.RunUntil(eng.Now() + sim.Time(arg%16)*sim.Time(20*time.Second))
		case opMigrate:
			note(k, c.StartMigration(vmOf(arg), hostOf(arg>>4)))
		case opCrash:
			note(k, c.CrashHost(hostOf(arg), time.Duration(1+(arg>>4)%4)*time.Minute))
		case opPark:
			st := power.S3
			if arg&16 != 0 {
				st = power.S5
			}
			note(k, c.SleepHost(hostOf(arg), st))
		case opWake:
			note(k, c.WakeHost(hostOf(arg)))
		case opDVFS:
			h, _ := c.Host(hostOf(arg))
			note(k, h.SetFrequency([]float64{0.6, 0.8, 1}[int(arg>>4)%3]))
		case opSurge:
			prefix := []string{"web", "db", ""}[int(arg)%3]
			factor := []float64{1, 0.5, 1.5, 2.5}[int(arg>>2)%4]
			note(k, c.ScaleDemandPrefix(prefix, factor))
		case opArrive:
			_, err := c.AddPendingVM(vm.Config{Name: "web-new", VCPUs: 2, MemoryGB: 4, Trace: fuzzTrace(int(arg), rng)})
			note(k, err)
		case opPlace:
			if pend := c.PendingVMs(); len(pend) > 0 {
				note(k, c.PlaceVM(pend[int(arg)%len(pend)], hostOf(arg>>4)))
			}
		case opDepart:
			note(k, c.RemoveVM(vmOf(arg)))
		case opFlush:
			c.Flush()
		}
	}
	c.Flush()
	return c, outcomes
}

// FuzzEvaluateMatchesFullScan is the differential fuzz target for the
// event-driven tick: a byte program of migrations (started, finished
// by the clock, aborted by a crash), crashes and repairs, parks and
// wakes, DVFS moves, demand surges and resets, arrivals, placements and
// departures, bursts on one instant, and Flush mid-run, runs on the
// tick and on the full-scan oracle. Series,
// aggregate SLA, energy, stranded VM·s, the event log and every step's
// outcome must match bit for bit. The seed corpus runs in
// `make determinism`; `go test -fuzz FuzzEvaluateMatchesFullScan
// ./internal/cluster/` searches further.
func FuzzEvaluateMatchesFullScan(f *testing.F) {
	f.Add([]byte{ // quiet hours: only the deadlines move anything
		0, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0, 15})
	f.Add([]byte{ // a migration burst on one instant, finished by the clock
		0, 3, opMigrate, 0x50, opMigrate, 0x51, opMigrate, 0x22, opDVFS, 0x12,
		0, 15, 0, 15, opMigrate, 0x23, 0, 9, 0, 15})
	f.Add([]byte{ // a move aborted by its destination's crash, then repair
		0, 2, opMigrate, 0x51, opCrash, 0x05, 0, 15, 0, 15, 0, 15, opMigrate, 0x02, 0, 15})
	f.Add([]byte{ // the empty host parked in S3 and S5 and woken, DVFS on busy ones
		opPark, 0x05, 0, 10, opWake, 0x05, 0, 15, opPark, 0x15, 0, 15, opWake, 0x05,
		opDVFS, 0x00, opDVFS, 0x12, opDVFS, 0x21, 0, 15, opDVFS, 0x20, 0, 15})
	f.Add([]byte{ // surges and resets between demand edges
		0, 7, opSurge, 0x0c, 0, 4, opSurge, 0x05, opSurge, 0x02, 0, 15,
		opSurge, 0x00, opSurge, 0x01, 0, 15, opSurge, 0x0e, 0, 15})
	f.Add([]byte{ // arrivals placed, departures, a crash with residents
		opArrive, 1, opArrive, 3, 0, 5, opPlace, 0x50, opPlace, 0x21, opDepart, 4,
		opDepart, 9, 0, 15, opCrash, 0x02, 0, 15, opArrive, 0, opPlace, 0x30, 0, 15, 0, 15})
	f.Add([]byte{ // Flush mid-run and on a tick's instant, with moves and a surge after
		0, 15, opFlush, 0, opMigrate, 0x41, 0, 15, opFlush, 0, opFlush, 0,
		opMigrate, 0x52, 0, 15, opSurge, 0x09, 0, 15})
	f.Add([]byte{ // everything at once, closed by two Flushes on one instant
		0, 6, opMigrate, 0x53, opMigrate, 0x24, opDVFS, 0x22, opSurge, 0x0a,
		opCrash, 0x03, opArrive, 2, opPlace, 0x40, 0, 15, opPark, 0x05, 0, 12,
		opWake, 0x05, opDepart, 7, opSurge, 0x04, 0, 15, 0, 15, 0, 15, opFlush, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		ref, refOut := runFuzzProgram(t, prog, true)
		got, gotOut := runFuzzProgram(t, prog, false)
		sameClusterResults(t, ref, got)
		sameEvents(t, ref, got)
		if len(refOut) != len(gotOut) {
			t.Fatalf("%d step outcomes vs %d", len(refOut), len(gotOut))
		}
		for i := range refOut {
			if refOut[i] != gotOut[i] {
				t.Fatalf("step outcome differs: %s vs %s", refOut[i], gotOut[i])
			}
		}
	})
}
