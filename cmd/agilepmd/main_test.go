package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"agilepower/internal/jobs"
)

// TestPersistStateAtomic checks the -state ledger: it round-trips
// through JSON, replaces an existing (here deliberately truncated)
// ledger, keeps the file mode, and leaves no temporary file behind.
func TestPersistStateAtomic(t *testing.T) {
	q := jobs.New(jobs.Config{Workers: 1}, func(context.Context, *jobs.Job) ([]byte, error) { return nil, nil })
	for _, tenant := range []string{"a", "b"} {
		if _, err := q.SubmitCompleted(tenant, nil, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte(`{"stoppedAt": "2026-`), 0o600); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := persistState(path, q); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			StoppedAt string        `json:"stoppedAt"`
			Counters  jobs.Counters `json:"counters"`
			Jobs      []jobs.Status `json:"jobs"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("round %d: ledger is not valid JSON: %v", round, err)
		}
		if got.StoppedAt == "" || len(got.Jobs) != 2 || got.Counters != q.Counters() {
			t.Fatalf("round %d: ledger = %+v", round, got)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Fatalf("ledger mode %v, want 0644", fi.Mode().Perm())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "state.json" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("round %d: directory holds %v, want just state.json", round, names)
		}
	}
}

// TestWriteFileAtomicFailureLeavesNoTemp checks the failure path: when
// the rename cannot happen (the target is a directory), the previous
// content stays and the temporary file is removed.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ledger")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(target, []byte("x"), 0o644); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ledger" || !entries[0].IsDir() {
		t.Fatalf("directory holds %v after a failed write, want just the original", entries)
	}
}
