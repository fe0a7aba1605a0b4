package core

import (
	"sort"
	"testing"

	"agilepower/internal/sim"
)

// dueRecorder is a dueVisitor that logs the entries it is handed and
// the next due times next chose for them.
type dueRecorder struct {
	visited []int
	keys    []sim.Time
	next    func(now sim.Time) sim.Time
}

func (r *dueRecorder) visitDue(i int, now sim.Time) sim.Time {
	k := r.next(now)
	r.visited = append(r.visited, i)
	r.keys = append(r.keys, k)
	return k
}

// checkDueSummary verifies the tree of minima: every summary entry is
// the minimum of its block, and the top level is a single root.
func checkDueSummary(t *testing.T, d *dueIndex) {
	t.Helper()
	for k := 1; k < len(d.lv); k++ {
		below := d.lv[k-1]
		if want := (len(below) + dueFanout - 1) / dueFanout; len(d.lv[k]) != want {
			t.Fatalf("level %d has %d entries over %d, want %d", k, len(d.lv[k]), len(below), want)
		}
		for j, got := range d.lv[k] {
			least := neverDue
			for c := j * dueFanout; c < min((j+1)*dueFanout, len(below)); c++ {
				least = min(least, below[c])
			}
			if got != least {
				t.Fatalf("level %d entry %d = %v, want block minimum %v", k, j, got, least)
			}
		}
	}
	if len(d.lv) > 1 && len(d.lv[len(d.lv)-1]) != 1 {
		t.Fatalf("top level has %d entries, want 1", len(d.lv[len(d.lv)-1]))
	}
}

// TestDueIndexMatchesSortedReference drives the due index and a plain
// slice of due times through the same random history: the index grows
// in uneven steps (across 64-entry blocks and into a third level), new
// entries get random due times or neverDue, existing entries are
// lowered to now or just after it, as a demand rescale lowers a VM's,
// sweeps run at rising instants, and a visited entry is rescheduled
// after now or dropped with neverDue, as a departed VM is. Each sweep
// must visit exactly the entries whose due time is at or before now,
// once each, in ascending index order.
func TestDueIndexMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		var idx dueIndex
		var ref []sim.Time
		now := sim.Time(0)
		key := func() sim.Time {
			if rng.Intn(8) == 0 {
				return neverDue
			}
			return now + sim.Time(rng.Intn(50)+1)
		}
		for step := 0; step < 200; step++ {
			if rng.Intn(4) == 0 && len(ref) < 5000 {
				n := len(ref) + rng.Intn(200) + 1
				if rng.Intn(10) == 0 {
					n += 4096
				}
				idx.grow(n)
				for i := len(ref); i < n; i++ {
					ref = append(ref, key())
					idx.add(i, ref[i])
				}
				checkDueSummary(t, &idx)
			}
			for n := rng.Intn(4); n > 0 && len(ref) > 0; n-- {
				i := rng.Intn(len(ref))
				k := now + sim.Time(rng.Intn(3))
				ref[i] = min(ref[i], k)
				idx.add(i, k)
			}
			now += sim.Time(rng.Intn(10))
			var want []int
			for i, k := range ref {
				if k <= now {
					want = append(want, i)
				}
			}
			rec := &dueRecorder{next: func(now sim.Time) sim.Time {
				if rng.Intn(10) == 0 {
					return neverDue // departed
				}
				return now + sim.Time(rng.Intn(50)+1)
			}}
			idx.sweep(now, rec)
			if !sort.IntsAreSorted(rec.visited) || len(rec.visited) != len(want) {
				t.Fatalf("seed %d step %d at %v: visited %d entries %v, want %d %v",
					seed, step, now, len(rec.visited), rec.visited, len(want), want)
			}
			for j, i := range rec.visited {
				if i != want[j] {
					t.Fatalf("seed %d step %d at %v: visit %d is entry %d, want %d", seed, step, now, j, i, want[j])
				}
				ref[i] = rec.keys[j]
			}
			for i, k := range ref {
				if idx.lv[0][i] != k {
					t.Fatalf("seed %d step %d: entry %d due at %v, want %v", seed, step, i, idx.lv[0][i], k)
				}
			}
			checkDueSummary(t, &idx)
		}
		if len(idx.lv) < 3 {
			t.Fatalf("seed %d: %d levels over %d entries; the history never grew a third level", seed, len(idx.lv), len(ref))
		}
	}
}

// TestDueIndexEdgeSizes covers the smallest indexes: empty, a single
// entry (the root is the entry itself) and exactly one full block.
func TestDueIndexEdgeSizes(t *testing.T) {
	var idx dueIndex
	empty := &dueRecorder{next: func(sim.Time) sim.Time { return neverDue }}
	idx.sweep(100, empty)
	if len(empty.visited) != 0 {
		t.Fatalf("an empty index visited %v", empty.visited)
	}
	for _, n := range []int{1, dueFanout, dueFanout + 1} {
		var idx dueIndex
		idx.grow(n)
		for i := 0; i < n; i++ {
			idx.add(i, sim.Time(i))
		}
		checkDueSummary(t, &idx)
		rec := &dueRecorder{next: func(sim.Time) sim.Time { return neverDue }}
		idx.sweep(sim.Time(n-1), rec)
		if len(rec.visited) != n {
			t.Fatalf("n=%d: visited %d entries, want all", n, len(rec.visited))
		}
		if top := idx.lv[len(idx.lv)-1][0]; top != neverDue {
			t.Fatalf("n=%d: root %v after dropping every entry, want neverDue", n, top)
		}
	}
}
