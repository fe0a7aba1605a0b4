package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// hyperscaleQuickHeapBudget bounds the quick hyperscale run's heap
// growth. The quick fleet is ~400× smaller than the full one, so this
// asserts the memory-bounding machinery (pooled traces, telemetry
// caps, chunked SLA arena) at proportionally tiny scale; the full-run
// budget lives in the bench-hyperscale Makefile target.
const hyperscaleQuickHeapBudget = 256 << 20

// TestHyperscaleQuickHeapBudget runs the hyperscale experiment on its
// own in quick mode and asserts the live heap stays under the budget —
// the guard that trace pooling or series caps cannot silently regress
// into per-VM copies — and that the report matches its golden section.
func TestHyperscaleQuickHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a quick-mode hyperscale replay; skipped with -short")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if err := Run("hyper", &buf, Options{Quick: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
	// HeapAlloc after a GC approximates live bytes; the delta versus
	// the pre-run baseline is what the run retains plus fragmentation
	// slack, far under the budget unless memory bounding broke.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > hyperscaleQuickHeapBudget {
		t.Fatalf("hyperscale quick grew live heap by %d MiB, budget %d MiB",
			grew>>20, int64(hyperscaleQuickHeapBudget)>>20)
	}
	diffAt(t, "hyper workers=1", buf.Bytes(), goldenQuickSection(t, "hyper"))
}
