package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/storage"
)

func TestRunExitsResourceCodeWhenJournalUnopenable(t *testing.T) {
	// A directory where the journal file should be: open fails, and the
	// process must exit 3 (resource) so supervisors can tell "fix my
	// disk" from a crash (1) or a flag typo (2).
	// The coordinator role boots through the same journal path.
	dir := t.TempDir()
	for _, role := range []string{"single", "coordinator"} {
		err := run([]string{"-role", role, "-journal", dir, "-manifest", ""})
		if err == nil {
			t.Fatalf("%s: run succeeded with an unopenable journal", role)
		}
		if got := cli.ExitCode(err); got != 3 {
			t.Fatalf("%s: exit code = %d (%v), want 3", role, got, err)
		}
	}
}

func TestRunExitsResourceCodeWhenLegacyManifestUnparseable(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "simd-manifest.json")
	if err := os.WriteFile(manifest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-journal", filepath.Join(dir, "simd.journal"),
		"-manifest", manifest,
	})
	if err == nil {
		t.Fatal("run succeeded with a corrupt legacy manifest")
	}
	if got := cli.ExitCode(err); got != 3 {
		t.Fatalf("exit code = %d (%v), want 3", got, err)
	}
}

func TestRunExitsUsageCodeOnBadFlag(t *testing.T) {
	err := run([]string{"-no-such-flag"})
	if err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if got := cli.ExitCode(err); got != 2 {
		t.Fatalf("exit code = %d (%v), want 2", got, err)
	}
}

func TestMigrateManifestReplaysLegacyJobsOnce(t *testing.T) {
	dir := t.TempDir()
	legacy := serve.Manifest{
		Drained: false,
		Jobs: []serve.ManifestEntry{
			{ID: "job-000004", Spec: serve.JobSpec{Kind: serve.JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014, Seed: 4}, State: serve.StateRunning, Attempts: 2},
			{ID: "job-000007", Spec: serve.JobSpec{Kind: serve.JobGrid, Table: "1a", Reps: 50, Seed: 7}, State: serve.StateQueued},
		},
	}
	blob, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "simd-manifest.json")
	if err := os.WriteFile(manifest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := storage.OpenFileLog(filepath.Join(dir, "simd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jl := serve.NewJournal(store, 1)
	if err := migrateManifest(jl, manifest); err != nil {
		t.Fatalf("first migration: %v", err)
	}

	// The manifest is consumed: renamed *.migrated so it never replays
	// again, and a second boot (file gone) is a silent no-op.
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Errorf("legacy manifest still present after migration (err=%v)", err)
	}
	if _, err := os.Stat(manifest + ".migrated"); err != nil {
		t.Errorf("migrated manifest not preserved: %v", err)
	}
	if err := migrateManifest(jl, manifest); err != nil {
		t.Fatalf("second migration (missing file) must be a no-op: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(data)
	if got := rec.UnfinishedJobs(); got != 2 {
		t.Fatalf("journal resumes %d jobs after migration, want 2", got)
	}
	byID := map[string]*serve.RecoveredJob{}
	for i := range rec.Jobs {
		byID[rec.Jobs[i].ID] = &rec.Jobs[i]
	}
	j4, ok := byID["job-000004"]
	if !ok || !j4.Unfinished() {
		t.Fatalf("job-000004 not resumable: %+v", j4)
	}
	if j4.Attempts != 2 {
		t.Errorf("job-000004 attempts = %d, want the legacy 2 preserved", j4.Attempts)
	}
	if j4.Spec.Scheme != "A_D_S" || j4.Spec.Seed != 4 {
		t.Errorf("job-000004 spec lost in migration: %+v", j4.Spec)
	}
	j7, ok := byID["job-000007"]
	if !ok || !j7.Unfinished() {
		t.Fatalf("job-000007 not resumable: %+v", j7)
	}
	if j7.Spec.Kind != serve.JobGrid || j7.Spec.Table != "1a" {
		t.Errorf("job-000007 spec lost in migration: %+v", j7.Spec)
	}

	// Replaying the same manifest bytes a second time (a crash between
	// append and rename) must not duplicate jobs: accepted records
	// deduplicate by ID.
	store2, err := storage.OpenFileLog(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	jl2 := serve.NewJournal(store2, 1)
	redo := filepath.Join(dir, "redo-manifest.json")
	if err := os.WriteFile(redo, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := migrateManifest(jl2, redo); err != nil {
		t.Fatalf("re-migration: %v", err)
	}
	if err := jl2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve.ReplayJournal(data); rec.UnfinishedJobs() != 2 {
		t.Fatalf("double migration produced %d unfinished jobs, want 2 (dedup by ID)", rec.UnfinishedJobs())
	}
}
