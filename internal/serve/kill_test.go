package serve_test

// The kill-and-recover soak: SIGKILL the service at deterministic
// crashpoints — mid-fsync, mid-shard-journal, mid-merge, mid-drain —
// and prove the journal recovers it with nothing silently dropped,
// nothing double-counted, and the final grid result byte-identical to
// an uninterrupted run.
//
// The harness re-executes this test binary as the victim: TestMain
// detects the child role via environment and runs a real journalled
// server in-process; chaos.ArmKillFromEnv arms the self-SIGKILL. Each
// round the child resumes from the journal the previous victim left
// behind and makes more progress before dying, until a final unkilled
// run completes the job. CI runs this under -race (`make kill-soak`).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
)

const (
	killChildEnv      = "SIMD_KILL_CHILD"
	killDirEnv        = "SIMD_KILL_DIR"
	killDrainEarlyEnv = "SIMD_KILL_DRAIN_EARLY"
)

func TestMain(m *testing.M) {
	if os.Getenv(killChildEnv) == "1" {
		os.Exit(killChildMain())
	}
	os.Exit(m.Run())
}

// killResult is what the child that completes the grid job records:
// the result bytes plus this process's rep ledger, so the parent can
// assert executed + recovered == cells × reps exactly.
type killResult struct {
	Result    json.RawMessage `json:"result"`
	Executed  int64           `json:"executed"`
	Recovered int64           `json:"recovered"`
	CellReps  int64           `json:"cell_reps"`
}

// killSpec is the workload every child resumes: sized to run for a few
// seconds (~600k simulated trajectories), so every kill point fires
// mid-flight with plenty of work left to recover.
var killSpec = serve.JobSpec{
	Kind: serve.JobGrid, Table: "1a", Reps: 30_000, ShardSize: 250,
	Seed: 2006, DeadlineMS: 110_000,
}

// killChildMain is the victim process: boot from the journal in
// SIMD_KILL_DIR, submit the grid job if this is the first life, run
// until the job is terminal (or die at the armed crashpoint trying),
// record the result, drain.
func killChildMain() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "kill-child: "+format+"\n", args...)
		return 1
	}
	dir := os.Getenv(killDirEnv)
	if dir == "" {
		return fail("no %s", killDirEnv)
	}
	if _, err := chaos.ArmKillFromEnv(); err != nil {
		return fail("%v", err)
	}
	store, err := storage.OpenFileLog(filepath.Join(dir, "simd.journal"))
	if err != nil {
		return fail("open journal: %v", err)
	}
	// Replay (cutting a torn tail) before this life's first append, as
	// simd does; small fsync batches so the journal.fsync crashpoint
	// fires early.
	rec, err := serve.ReplayFileLog(store)
	if err != nil {
		return fail("read journal: %v", err)
	}
	jl := serve.NewJournal(store, 4)
	srv := serve.New(serve.Config{
		QueueDepth: 4, Workers: 1, GridWorkers: 2,
		DefaultTimeout: 2 * time.Minute,
		Journal:        jl, Recovery: rec,
	})

	var id string
	for _, v := range srv.Jobs() {
		if v.Kind == serve.JobGrid {
			id = v.ID
		}
	}
	if id == "" {
		job, err := srv.Enqueue(killSpec)
		if err != nil {
			return fail("enqueue: %v", err)
		}
		id = job.ID
	}

	if os.Getenv(killDrainEarlyEnv) == "1" {
		// Mid-drain victim: give the job a moment to bank progress, then
		// drain with an immediate deadline — the armed "drain" crashpoint
		// kills us before the clean-shutdown record lands.
		time.Sleep(300 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, _ = srv.Shutdown(ctx)
		return fail("drain-early child survived its kill point")
	}

	for {
		v, ok := srv.Lookup(id)
		if !ok {
			return fail("job %s vanished", id)
		}
		if v.State.Terminal() {
			if v.State != serve.StateDone {
				return fail("job ended %s: %s", v.State, v.Error)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Record the completed result with this process's exact rep ledger —
	// but only once: the first completing life owns the file.
	out := filepath.Join(dir, "result.json")
	if _, err := os.Stat(out); os.IsNotExist(err) {
		v, _ := srv.Lookup(id)
		blob, err := json.Marshal(v.Result)
		if err != nil {
			return fail("marshal result: %v", err)
		}
		var res serve.GridResult
		if err := json.Unmarshal(blob, &res); err != nil {
			return fail("decode result: %v", err)
		}
		cellReps := int64(len(res.Rows)*len(res.Rows[0].Cells)) * int64(res.Reps)
		kr := killResult{
			Result:    blob,
			Executed:  srv.Metrics().Counter(experiment.MetricReps, "").Value(),
			Recovered: srv.Metrics().Counter(experiment.MetricRepsRecovered, "").Value(),
			CellReps:  cellReps,
		}
		krBlob, err := json.Marshal(kr)
		if err != nil {
			return fail("marshal: %v", err)
		}
		if err := os.WriteFile(out, krBlob, 0o644); err != nil {
			return fail("write result: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv.Shutdown(ctx); err != nil {
		return fail("shutdown: %v", err)
	}
	if err := jl.Close(); err != nil {
		return fail("close journal: %v", err)
	}
	return 0
}

// runKillChild executes one child life and reports how it ended.
func runKillChild(t *testing.T, dir, killPoint string, drainEarly bool) (sigkilled bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		killChildEnv+"=1",
		killDirEnv+"="+dir,
		chaos.KillEnv+"="+killPoint,
	)
	if drainEarly {
		cmd.Env = append(cmd.Env, killDrainEarlyEnv+"=1")
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return false
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("child (kill=%q) failed to run: %v\n%s", killPoint, err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
		return true
	}
	t.Fatalf("child (kill=%q) exited abnormally without SIGKILL: %v\n%s", killPoint, err, out)
	return false
}

// TestKillRecoverSoak is the crash-safety acceptance test. Each round
// SIGKILLs the service at a different deterministic point; the final
// round completes. Pinned invariants:
//
//   - no silent drop / no double count: the completing process's
//     executed + recovered rep counters equal cells × reps exactly,
//     with recovered > 0 (the kills really cost progress that the
//     journal really restored);
//   - golden-bit determinism: the recovered grid result is
//     byte-identical to an uninterrupted run in a fresh directory;
//   - a clean drain leaves a clean-shutdown record, a killed drain
//     does not, and replay tells them apart.
func TestKillRecoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-recover soak re-executes the test binary; skipped in -short")
	}
	dir := t.TempDir()

	kills := []struct {
		point      string
		drainEarly bool
	}{
		{"journal.fsync:2", false}, // mid-fsync, early in the run
		{"journal.shard:3", false}, // after the 3rd shard checkpoint of this life
		{"shard.merge:6", false},   // after the 6th merged shard of this life
		{"drain:1", true},          // mid-drain, before the clean-shutdown record
	}
	for _, k := range kills {
		if !runKillChild(t, dir, k.point, k.drainEarly) {
			t.Fatalf("child armed with %s completed instead of dying — kill point never fired", k.point)
		}
	}

	// Every victim so far died uncleanly: the journal must say so.
	blob, err := os.ReadFile(filepath.Join(dir, "simd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve.ReplayJournal(blob); rec.CleanShutdown {
		t.Error("journal claims a clean shutdown after four SIGKILLs")
	}

	// The final life completes and drains cleanly.
	if runKillChild(t, dir, "", false) {
		t.Fatal("unkilled child died")
	}
	krBlob, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatalf("completing child left no result: %v", err)
	}
	var kr killResult
	if err := json.Unmarshal(krBlob, &kr); err != nil {
		t.Fatal(err)
	}
	if kr.Executed+kr.Recovered != kr.CellReps {
		t.Errorf("rep ledger leak: executed %d + recovered %d != cells×reps %d",
			kr.Executed, kr.Recovered, kr.CellReps)
	}
	if kr.Recovered == 0 {
		t.Error("completing run recovered nothing — the kills never banked progress")
	}
	if kr.Executed == 0 {
		t.Error("completing run executed nothing — the soak completed before the first kill")
	}
	blob, err = os.ReadFile(filepath.Join(dir, "simd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(blob)
	if !rec.CleanShutdown {
		t.Error("clean final drain left no clean-shutdown record")
	}
	if got := rec.UnfinishedJobs(); got != 0 {
		t.Errorf("%d jobs still unfinished after a completed run", got)
	}

	// Golden-bit determinism: an uninterrupted run in a fresh directory
	// must produce byte-identical result JSON.
	refDir := t.TempDir()
	if runKillChild(t, refDir, "", false) {
		t.Fatal("reference child died")
	}
	refBlob, err := os.ReadFile(filepath.Join(refDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref killResult
	if err := json.Unmarshal(refBlob, &ref); err != nil {
		t.Fatal(err)
	}
	if string(kr.Result) != string(ref.Result) {
		t.Error("recovered result differs from the uninterrupted run — crash recovery perturbed the bits")
	}
	if ref.Recovered != 0 {
		t.Errorf("reference run recovered %d reps from an empty journal", ref.Recovered)
	}
	t.Logf("kill soak: %d kill points, result %d bytes, executed %d + recovered %d reps",
		len(kills), len(kr.Result), kr.Executed, kr.Recovered)
}
