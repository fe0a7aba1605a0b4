package migrate

import (
	"errors"
	"testing"
	"time"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// checkInflight asserts the in-flight view is strictly ascending by VM
// ID and agrees with the dense per-VM and per-host indexes.
func checkInflight(t *testing.T, m *Manager, hosts int) {
	t.Helper()
	load := make([]int, hosts+1)
	list := m.Inflights()
	for i, mig := range list {
		if i > 0 && list[i-1].VM >= mig.VM {
			t.Fatalf("Inflights not ascending at %d: vm %d then %d", i, list[i-1].VM, mig.VM)
		}
		if got, ok := m.Get(mig.VM); !ok || got != mig || !m.Migrating(mig.VM) {
			t.Fatalf("vm %d listed in flight but not indexed", mig.VM)
		}
		load[mig.Src]++
		load[mig.Dst]++
	}
	if m.Inflight() != len(list) {
		t.Fatalf("Inflight() = %d, list has %d", m.Inflight(), len(list))
	}
	for h, n := range load {
		if m.HostLoad(h) != n {
			t.Fatalf("HostLoad(%d) = %d, in-flight list says %d", h, m.HostLoad(h), n)
		}
	}
}

// TestInflightsSortedAcrossInterleavings interleaves starts in random
// VM order, completions, and host failures, and checks after every
// operation that Inflights() stays in ascending VM-ID order and in
// step with Migrating, Get and HostLoad.
func TestInflightsSortedAcrossInterleavings(t *testing.T) {
	const hosts = 12
	eng, m := newTestManager(t, 3)
	rng := sim.NewRNG(9)
	next := vm.ID(1)
	for op := 0; op < 600; op++ {
		switch rng.Intn(4) {
		case 0, 1:
			// Start a VM with a random ID below the high-water mark
			// (or a fresh one), so inserts land anywhere in the list.
			id := vm.ID(rng.Intn(int(next))) + 1
			if id == next {
				next++
			}
			src, dst := rng.Intn(hosts)+1, rng.Intn(hosts)+1
			_, _ = m.Start(id, src, dst, rng.Range(1, 16))
		case 2:
			eng.RunUntil(eng.Now() + sim.Time(rng.Range(0, 20)*float64(time.Second)))
		case 3:
			m.FailHost(rng.Intn(hosts) + 1)
		}
		checkInflight(t, m, hosts)
	}
	if st := m.Stats(); st.Completed == 0 || st.Aborted == 0 || st.Started < 50 {
		t.Fatalf("interleaving too thin: %+v", st)
	}
}

// TestFailHostAbortsEachOnce crashes a host while its aborts' failure
// callbacks re-plan — starting new migrations, which reshapes the
// in-flight list FailHost is walking. Each migration touching the host
// must abort exactly once; migrations started by the callbacks are not
// part of the crash.
func TestFailHostAbortsEachOnce(t *testing.T) {
	_, m := newTestManager(t, 4)
	aborts := map[vm.ID]int{}
	// Re-plans around the crash, as the management layer does: each
	// abort's callback starts a move elsewhere, which lands in the list
	// mid-walk, below and above the aborted migrations' IDs.
	replans := []vm.ID{99, 2, 50, 1}
	m.OnFailed(func(mg *Migration) {
		aborts[mg.VM]++
		id := replans[len(replans)-1]
		replans = replans[:len(replans)-1]
		if _, err := m.Start(id, 7, 8, 4); err != nil {
			t.Fatal(err)
		}
	})
	touching := []struct {
		id       vm.ID
		src, dst int
	}{{5, 1, 2}, {9, 3, 1}, {20, 1, 4}, {40, 6, 1}}
	for _, s := range touching {
		if _, err := m.Start(s.id, s.src, s.dst, 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Start(30, 2, 3, 8); err != nil {
		t.Fatal(err)
	}
	if n := m.FailHost(1); n != len(touching) {
		t.Fatalf("FailHost aborted %d, want %d", n, len(touching))
	}
	for _, s := range touching {
		if aborts[s.id] != 1 {
			t.Fatalf("vm %d aborted %d times, want exactly once", s.id, aborts[s.id])
		}
	}
	if len(aborts) != len(touching) {
		t.Fatalf("aborted %v, want only the migrations touching host 1", aborts)
	}
	if !m.Migrating(30) || m.HostLoad(1) != 0 || m.HostLoad(7) != 4 {
		t.Fatalf("after the crash: vm 30 migrating %v, host 1 load %d, host 7 load %d",
			m.Migrating(30), m.HostLoad(1), m.HostLoad(7))
	}
	checkInflight(t, m, 8)
}

// TestHostLoadBeyondGrownRange checks the dense per-host and per-VM
// lookups outside the range they have grown to: unseen hosts carry no
// load and admit migrations, unseen VMs are not migrating, and
// negative IDs are refused.
func TestHostLoadBeyondGrownRange(t *testing.T) {
	_, m := newTestManager(t, 1)
	if m.HostLoad(1_000_000) != 0 || m.HostLoad(-1) != 0 || !m.CanStart(500, 900) {
		t.Fatal("empty manager reports load")
	}
	if _, err := m.Start(3, 2, 5, 8); err != nil {
		t.Fatal(err)
	}
	if m.HostLoad(6) != 0 || m.HostLoad(1<<20) != 0 {
		t.Fatal("load beyond the grown range")
	}
	if !m.CanStart(6, 1<<20) || m.CanStart(2, 1<<20) || m.CanStart(1<<20, 5) {
		t.Fatal("CanStart wrong beyond the grown range")
	}
	if m.Migrating(4) || m.Migrating(1<<30) || m.Migrating(-3) {
		t.Fatal("unseen vm reported migrating")
	}
	if _, err := m.Start(1<<16, 1<<12, 7, 8); err != nil {
		t.Fatal(err)
	}
	if m.HostLoad(1<<12) != 1 || !m.Migrating(1<<16) {
		t.Fatal("grown range not tracked")
	}
	for _, bad := range [][3]int{{-1, 1, 2}, {1, -1, 2}, {1, 2, -1}} {
		if _, err := m.Start(vm.ID(bad[0]), bad[1], bad[2], 8); !errors.Is(err, ErrNegativeID) {
			t.Fatalf("Start%v = %v, want ErrNegativeID", bad, err)
		}
	}
	if _, err := DefaultModel().Plan(0); !errors.Is(err, ErrNonPositiveMemory) {
		t.Fatalf("Plan(0) = %v, want ErrNonPositiveMemory", err)
	}
}
