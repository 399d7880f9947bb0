package cluster_test

// The kill-tolerant distributed soak: real worker processes SIGKILLed
// mid-unit (work done, reply lost — the worst case), a flaky transport
// dropping/duplicating/delaying coordinator traffic, and a simulated
// coordinator crash mid-job. The job must still finish on a successor
// coordinator with the final table byte-identical to the local
// single-process engine and the rep ledger exact:
//
//	grid_reps_total + grid_reps_recovered_total == cells × reps
//
// The harness re-executes this test binary as the worker victims:
// TestMain detects the child role via environment, arms
// chaos.ArmKillFromEnv, serves a real cluster worker and registers
// with the parent's coordinator. CI runs this under -race
// (`make cluster-soak`).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
)

const (
	clusterChildEnv   = "SIMD_CLUSTER_WORKER_CHILD"
	clusterCoordEnv   = "SIMD_CLUSTER_COORD_URL"
	clusterURLFileEnv = "SIMD_CLUSTER_URL_FILE"
)

func TestMain(m *testing.M) {
	if os.Getenv(clusterChildEnv) == "1" {
		os.Exit(workerChildMain())
	}
	os.Exit(m.Run())
}

// workerChildMain is a worker victim process: arm the self-SIGKILL,
// serve the unit-execution API on a loopback port, publish the URL for
// the parent, register with the coordinator and work until killed.
func workerChildMain() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "cluster-worker-child: "+format+"\n", args...)
		return 1
	}
	if _, err := chaos.ArmKillFromEnv(); err != nil {
		return fail("%v", err)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{MaxInflight: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	url := "http://" + ln.Addr().String()
	go http.Serve(ln, w.Handler())
	if f := os.Getenv(clusterURLFileEnv); f != "" {
		tmp := f + ".tmp"
		if err := os.WriteFile(tmp, []byte(url), 0o644); err != nil {
			return fail("write url file: %v", err)
		}
		if err := os.Rename(tmp, f); err != nil {
			return fail("publish url file: %v", err)
		}
	}
	coord := os.Getenv(clusterCoordEnv)
	if coord == "" {
		return fail("no %s", clusterCoordEnv)
	}
	if err := cluster.RegisterLoop(context.Background(), nil, coord, url, nil); err != nil {
		return fail("register: %v", err)
	}
	select {} // work until SIGKILLed (or the parent cleans us up)
}

// workerChild is one spawned victim/survivor process.
type workerChild struct {
	cmd     *exec.Cmd
	urlFile string
	done    chan error
}

// spawnWorkerChild re-executes the test binary as a cluster worker.
// killPoint ("" for none) arms the chaos self-SIGKILL.
func spawnWorkerChild(t *testing.T, dir, name, coordURL, killPoint string) *workerChild {
	t.Helper()
	urlFile := filepath.Join(dir, name+".url")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		clusterChildEnv+"=1",
		clusterCoordEnv+"="+coordURL,
		clusterURLFileEnv+"="+urlFile,
		chaos.KillEnv+"="+killPoint,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker %s: %v", name, err)
	}
	wc := &workerChild{cmd: cmd, urlFile: urlFile, done: make(chan error, 1)}
	go func() { wc.done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-wc.done
	})
	return wc
}

// url waits for the child to publish its listen address.
func (wc *workerChild) url(t *testing.T, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if blob, err := os.ReadFile(wc.urlFile); err == nil && len(blob) > 0 {
			return string(blob)
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker child never published %s", wc.urlFile)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitSIGKILL blocks until the child exits and asserts it died of the
// armed kill point, not of anything else.
func (wc *workerChild) waitSIGKILL(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case err := <-wc.done:
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("worker victim exited without signal: %v", err)
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("worker victim died abnormally: %v", err)
		}
		wc.done <- err // keep the channel readable for Cleanup
	case <-time.After(timeout):
		t.Fatalf("worker victim still alive after %v — kill point never fired", timeout)
	}
}

// soakSpec is the distributed workload: 32 cells × 3000 reps in
// 50-rep units = 1920 dispatches, enough for every failure mode to
// fire mid-flight with most of the job left to recover.
var soakSpec = serve.JobSpec{
	Kind: serve.JobGrid, Table: "1a", Reps: 3000, ShardSize: 50,
	Seed: 2006, DeadlineMS: 300_000,
}

// TestClusterSoakKillRecover is the distributed robustness acceptance
// test. Timeline: three worker processes (two armed to SIGKILL
// themselves mid-unit), a chaos transport dropping/duplicating/
// delaying coordinator traffic, a journalled coordinator that is
// "crashed" (closed without finished records) once both victims are
// dead and real progress is banked — then a successor coordinator
// replays the journal, re-registers the survivor, gains a fresh
// worker, and finishes the job. Pinned invariants:
//
//   - byte identity: the final result JSON equals the local
//     single-process engine's, whatever the failure history;
//   - exact ledger: merged + recovered == cells × reps on the
//     completing coordinator, with recovered > 0 (the crash really
//     cost progress the journal really restored);
//   - the kills really re-dispatched work, and the chaos transport
//     really injected faults.
func TestClusterSoakKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak re-executes the test binary; skipped in -short")
	}
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "coord.journal")
	want := localGridJSON(t, soakSpec)

	// --- Phase A: chaos run, two victims, coordinator crash ---
	store1, err := storage.OpenFileLog(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	jl1 := serve.NewJournal(store1, 4)
	flaky := chaos.NewFlakyTransport(chaos.TransportConfig{
		Seed: 7, DropProb: 0.05, DupProb: 0.05, DelayProb: 0.10, Delay: 5 * time.Millisecond,
	}, nil)
	c1 := cluster.NewWithServer(cluster.Config{
		LeaseTimeout:      10 * time.Second,
		HedgeAfter:        150 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
		RetryMax:          500 * time.Millisecond,
		Transport:         flaky,
		Logf:              t.Logf,
	}, serve.Config{Journal: jl1})
	ts1 := httptest.NewServer(c1.Handler())

	w1 := spawnWorkerChild(t, dir, "w1", ts1.URL, "worker.unit:3")
	w2 := spawnWorkerChild(t, dir, "w2", ts1.URL, "worker.unit:6")
	w3 := spawnWorkerChild(t, dir, "w3", ts1.URL, "")
	w3url := w3.url(t, 15*time.Second)
	for deadline := time.Now().Add(30 * time.Second); c1.WorkersLive() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 workers registered", c1.WorkersLive())
		}
		time.Sleep(10 * time.Millisecond)
	}

	blob, err := json.Marshal(soakSpec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	jobID := view.ID

	// Both victims must die their armed deaths mid-unit...
	w1.waitSIGKILL(t, 60*time.Second)
	w2.waitSIGKILL(t, 60*time.Second)
	// ...and the journal must hold real banked progress before the
	// coordinator itself "crashes".
	unitsCompleted := func() int64 {
		return c1.Server().Metrics().Counter(cluster.MetricUnitsCompleted, "").Value()
	}
	for deadline := time.Now().Add(120 * time.Second); unitsCompleted() < 60; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d units banked, want >= 60", unitsCompleted())
		}
		if v, _ := c1.Server().Lookup(jobID); v.State.Terminal() {
			t.Fatalf("job finished before the coordinator crash (%s)", v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts1.Close()
	c1.Close() // abandons the running job: no finished record
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}
	banked1 := unitsCompleted()
	crashed, _ := c1.Server().Lookup(jobID)
	redispatched1 := c1.Server().Metrics().Counter(cluster.MetricUnitsRedispatched, "").Value()
	if got := flaky.Stats().Injected(); got == 0 {
		t.Error("chaos transport injected nothing — the soak ran in calm weather")
	}

	// --- Phase B: successor coordinator resumes from the journal ---
	blob, err = os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(blob)
	if rec.CleanShutdown {
		t.Error("journal claims a clean shutdown after a crashed coordinator")
	}
	if got := rec.UnfinishedJobs(); got != 1 {
		t.Fatalf("replay found %d unfinished jobs, want 1", got)
	}
	store2, err := storage.OpenFileLog(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	jl2 := serve.NewJournal(store2, 4)
	defer jl2.Close()
	flaky2 := chaos.NewFlakyTransport(chaos.TransportConfig{
		Seed: 8, DropProb: 0.03, DupProb: 0.03, DelayProb: 0.05, Delay: 2 * time.Millisecond,
	}, nil)
	c2 := cluster.NewWithServer(cluster.Config{
		LeaseTimeout:      10 * time.Second,
		HedgeAfter:        150 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
		RetryMax:          500 * time.Millisecond,
		Transport:         flaky2,
		Logf:              t.Logf,
	}, serve.Config{Journal: jl2, Recovery: rec})
	t.Cleanup(c2.Close)
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(ts2.Close)
	// The survivor re-registers (its boot-time RegisterLoop is long
	// done, so the parent re-introduces it), and a fresh worker joins.
	if err := cluster.Register(context.Background(), nil, ts2.URL, w3url); err != nil {
		t.Fatalf("re-register survivor: %v", err)
	}
	spawnWorkerChild(t, dir, "w4", ts2.URL, "")

	v := waitDone(t, c2, jobID, 300*time.Second)
	if !v.Resumed {
		t.Error("finished job not marked resumed")
	}
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("distributed result differs from the local single-process engine")
	}

	merged := c2.Server().Metrics().Counter(experiment.MetricReps, "").Value()
	recovered := c2.Server().Metrics().Counter(experiment.MetricRepsRecovered, "").Value()
	tspec, err := experiment.TableByID(soakSpec.Table)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(tspec.Us) * len(tspec.Lambdas) * len(tspec.Schemes())
	if want := int64(cells * soakSpec.Reps); merged+recovered != want {
		t.Errorf("rep ledger leak: merged %d + recovered %d != cells×reps %d", merged, recovered, want)
	}
	if recovered == 0 {
		t.Error("successor recovered nothing — the crash never cost banked progress")
	}
	if merged == 0 {
		t.Error("successor merged nothing — the job was already complete at the crash")
	}
	redispatched2 := c2.Server().Metrics().Counter(cluster.MetricUnitsRedispatched, "").Value()
	if redispatched1+redispatched2 == 0 {
		t.Error("no unit was ever re-dispatched across two SIGKILLed workers")
	}
	if got := c2.Server().Metrics().Counter(metricJobsResumed, "").Value(); got != 1 {
		t.Errorf("%s = %d, want 1", metricJobsResumed, got)
	}
	t.Logf("soak: crash at %d/%d banked units; successor merged %d + recovered %d reps; redispatched %d+%d; chaos injected %d+%d faults",
		banked1, crashed.UnitsTotal, merged, recovered, redispatched1, redispatched2,
		flaky.Stats().Injected(), flaky2.Stats().Injected())
}
