package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"agilepower/internal/cluster"
	"agilepower/internal/core"
)

// diffAt reports the first byte where two outputs diverge, with
// context, so a determinism regression is immediately localizable.
func diffAt(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+80, i+80
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Fatalf("%s: output differs at byte %d (got %d bytes, want %d bytes)\ngot:  %q\nwant: %q",
		label, i, len(got), len(want), got[lo:hiG], want[lo:hiW])
}

// sideBySide runs s copies of run at once, each on its own goroutine,
// and returns their outputs in order; s = 0 runs one copy on the
// test's goroutine. It gives the golden replays' shards=S axes their
// meaning: a simulation runs on one goroutine, so sweeps spread over
// cores by running side by side, in one process as the service runs
// its jobs, and each must render exactly its golden bytes.
func sideBySide(s int, run func() ([]byte, error)) ([][]byte, error) {
	if s == 0 {
		out, err := run()
		return [][]byte{out}, err
	}
	outs := make([][]byte, s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// goldenQuickSection extracts one experiment's report body (including
// its "=== experiment id ===" header) from testdata/golden_quick.txt.
func goldenQuickSection(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	marker := fmt.Sprintf("\n=== experiment %s ===\n", id)
	start := strings.Index(string(data), marker)
	if start < 0 {
		t.Fatalf("experiment %s not found in golden_quick.txt", id)
	}
	body := data[start+len(marker):]
	if end := bytes.Index(body, []byte("\n=== experiment ")); end >= 0 {
		body = body[:end]
	}
	return body
}

// TestRunAllMatchesGolden pins the quick-mode suite to the bytes in
// testdata/golden_quick.txt, recorded before the allocation-free
// hot-path rework and by cold per-cell world construction. Each row is
// one full sweep under a different execution mix, and none of them may
// move a byte:
//   - the worker count: RunAll fans out across experiments and inside
//     each one, stitching per-index buffers, so a sequential pass and a
//     4-worker pass both matching the golden proves the reports are
//     independent of it;
//   - progress: per-experiment lines go to their own writer, never into
//     the report, and the summary names the pinned worker count;
//   - sweeps side by side (shards=S, see sideBySide): S sweeps run at
//     once in one process, so a prototype, cache or counter that one
//     sweep shared with another would move a byte or race under -race.
//
// Every grid cell forks one shared world prototype, so each row is
// also a fork-versus-cold identity proof for the whole suite.
func TestRunAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("five quick-mode full sweeps; skipped with -short")
	}
	want, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		workers, shards int
		progress        bool
	}{
		{workers: 1},
		{workers: 4},
		{workers: 2, progress: true},
		{workers: 4, shards: 4},
		{workers: 1, shards: 2},
	} {
		name := fmt.Sprintf("workers=%d/shards=%d/progress=%v", row.workers, row.shards, row.progress)
		t.Run(name, func(t *testing.T) {
			var progress bytes.Buffer
			opts := Options{Quick: true, Workers: row.workers}
			if row.progress {
				opts.Progress = &progress
			}
			outs, err := sideBySide(row.shards, func() ([]byte, error) {
				var got bytes.Buffer
				err := RunAll(&got, opts)
				return got.Bytes(), err
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range outs {
				diffAt(t, name, got, want)
			}
			if !row.progress {
				return
			}
			if !bytes.Contains(progress.Bytes(), []byte("experiment t2")) {
				t.Fatalf("progress missing per-experiment lines:\n%s", progress.String())
			}
			if !bytes.Contains(progress.Bytes(), []byte(fmt.Sprintf("(workers=%d)", row.workers))) {
				t.Fatalf("progress missing summary line:\n%s", progress.String())
			}
		})
	}
}

// TestFaultedExperimentsMatchGolden replays the robust and ctrl
// experiments — fault injection, crash/repair churn and the imperfect
// control plane, the paths that stress the tick's dirty queue and
// deadlines, the manager's cache invalidation and the forked worlds
// hardest — with 1, 2 or 4 replays side by side (shards=S, see
// sideBySide) × workers {1, 4}, each on the event-driven (delta) tick
// and on the full-scan oracle, comparing every report byte-for-byte
// against its golden section. The oracle replays keep the oracle
// itself, which the cluster-level identity tests compare against, tied
// to the golden bytes under faults. Every manager also holds its
// planning rows to the whole-fleet pass at each use
// (core.CheckPlanningRowsForAll). Under -race this doubles as the
// concurrency workout for concurrent forks of one prototype and for
// simulations of separate prototypes running at once.
func TestFaultedExperimentsMatchGolden(t *testing.T) {
	defer core.CheckPlanningRowsForAll()()
	for _, id := range []string{"robust", "ctrl"} {
		want := goldenQuickSection(t, id)
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				for _, delta := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards=%d/workers=%d/delta=%v", id, shards, workers, delta)
					t.Run(name, func(t *testing.T) {
						if !delta {
							defer cluster.UseFullScanOracleForAll()()
						}
						outs, err := sideBySide(shards, func() ([]byte, error) {
							var got bytes.Buffer
							err := Run(id, &got, Options{Quick: true, Workers: workers})
							return got.Bytes(), err
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, got := range outs {
							diffAt(t, name, got, want)
						}
					})
				}
			}
		}
	}
}

// TestRunMatchesGoldenSections runs each experiment on its own through
// Run with default options, as `sweep -exp <id> -quick` does, and
// compares its report with that experiment's section of the full-suite
// golden. RunAll frames and stitches these same reports, so this pins
// the single-experiment path in its own right. Each subtest also runs
// alone (-run 'TestRunMatchesGoldenSections/<id>'), so a report that
// depended on another experiment having run first in the same process
// — a shared prototype, cache or random stream — drifts there.
func TestRunMatchesGoldenSections(t *testing.T) {
	if testing.Short() {
		t.Skip("one quick-mode sweep, an experiment at a time; skipped with -short")
	}
	for _, id := range IDs() {
		if id == "hyper" {
			// TestHyperscaleQuickHeapBudget runs hyper on its own and
			// compares these bytes while it bounds the heap.
			continue
		}
		t.Run(id, func(t *testing.T) {
			var got bytes.Buffer
			if err := Run(id, &got, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			diffAt(t, id, got.Bytes(), goldenQuickSection(t, id))
		})
	}
}

// fullResultSection extracts one experiment's report body from the
// archived full-scale results file.
func fullResultSection(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Skipf("archived full-scale results not present: %v", err)
	}
	marker := fmt.Sprintf("\n=== experiment %s ===\n", id)
	start := strings.Index(string(data), marker)
	if start < 0 {
		t.Fatalf("experiment %s not found in results_full.txt", id)
	}
	body := data[start+len(marker):]
	// The "\n" before the next header is that header's leading
	// separator (RunAll prints "\n=== experiment ... ==="), not part of
	// this section's report.
	if end := bytes.Index(body, []byte("\n=== experiment ")); end >= 0 {
		body = body[:end]
	}
	return body
}

// TestFullScaleSectionsMatchArchivedResults replays a representative
// subset of experiments at full scale (no Quick shrinkage) and
// compares each report byte-for-byte against the archived
// pre-optimization results_full.txt, at one worker and at several.
// The subset covers the characterization table (t1), the transition
// sweeps (f2, f3) and the energy-proportionality sweep (f4) — the
// fastest full-scale runs that still exercise the evaluate loop, the
// manager control path and power-state machinery end to end.
func TestFullScaleSectionsMatchArchivedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment replays; skipped with -short")
	}
	for _, id := range []string{"t1", "f2", "f3", "f4"} {
		want := fullResultSection(t, id)
		for _, workers := range []int{1, 3} {
			var got bytes.Buffer
			if err := Run(id, &got, Options{Workers: workers}); err != nil {
				t.Fatalf("run %s: %v", id, err)
			}
			diffAt(t, fmt.Sprintf("%s workers=%d", id, workers), got.Bytes(), want)
		}
	}
}
