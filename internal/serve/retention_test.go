package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/storage"
)

// waitState polls a job until it is terminal.
func waitState(t *testing.T, s *Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTerminalJobRetention pins the bounded job ledger: past
// retainedTerminalJobs terminal jobs the oldest is evicted (a GET of its
// id answers 404) while an unfinished job is never evicted, the ledger's
// admission-order list stays bounded, and a journal replay restores only
// the newest retainedTerminalJobs terminal jobs but re-queues every
// unfinished one, with every job still in the counters.
func TestTerminalJobRetention(t *testing.T) {
	release := make(chan struct{})
	mem := storage.NewMemLog()
	s := New(Config{
		Workers: 2,
		Journal: NewJournal(mem, 1),
		// Single jobs block until released (or aborted): one stays
		// unfinished while terminal jobs pile up behind it.
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec JobSpec, next Exec) (any, error) {
			if spec.Kind == JobSingle {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return next(ctx)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocked, err := s.Enqueue(JobSpec{Kind: JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := JobSpec{Kind: JobGrid, Table: "2b", Reps: 20, Seed: 3}
	first, err := s.Enqueue(grid)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID)

	// Resubmissions are answered from the result cache: terminal on
	// admission, one per Enqueue.
	const extra = 10
	var last *Job
	for i := 0; i < retainedTerminalJobs+extra; i++ {
		if last, err = s.Enqueue(grid); err != nil {
			t.Fatal(err)
		}
	}

	if _, ok := s.Lookup(first.ID); ok {
		t.Errorf("oldest terminal job %s still retained after %d newer ones", first.ID, retainedTerminalJobs+extra)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of an evicted job: status %d, want 404", resp.StatusCode)
	}
	if v, ok := s.Lookup(last.ID); !ok || v.State != StateDone {
		t.Errorf("newest terminal job %s not retained (found %v, state %s)", last.ID, ok, v.State)
	}
	if v, ok := s.Lookup(blocked.ID); !ok || v.State.Terminal() {
		t.Errorf("unfinished job %s evicted or finished (found %v, state %s)", blocked.ID, ok, v.State)
	}
	if n := len(s.Jobs()); n != retainedTerminalJobs+1 {
		t.Errorf("ledger lists %d jobs, want %d terminal + 1 unfinished", n, retainedTerminalJobs)
	}
	s.mu.Lock()
	nOrder, nJobs := len(s.order), len(s.jobs)
	s.mu.Unlock()
	if nOrder > 2*nJobs {
		t.Errorf("admission-order list holds %d ids for %d retained jobs", nOrder, nJobs)
	}
	accepted := s.Counters().Accepted

	// A crash: the blocked job is aborted without a finished record, so
	// the replay resumes it.
	s.Close()
	close(release)
	blob, err := mem.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Recovery: ReplayJournal(blob)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = s2.Shutdown(ctx)
	}()
	if c := s2.Counters(); c.Accepted != accepted {
		t.Errorf("replay counted %d accepted jobs, want %d", c.Accepted, accepted)
	}
	if _, ok := s2.Lookup(first.ID); ok {
		t.Errorf("replay restored evicted terminal job %s", first.ID)
	}
	if _, ok := s2.Lookup(last.ID); !ok {
		t.Errorf("replay lost the newest terminal job %s", last.ID)
	}
	if v := waitState(t, s2, blocked.ID); v.State != StateDone || !v.Resumed {
		t.Errorf("unfinished job %s replayed as %s (resumed %v), want a resumed done job", blocked.ID, v.State, v.Resumed)
	}
	if n := len(s2.Jobs()); n != retainedTerminalJobs {
		t.Errorf("replayed ledger lists %d jobs, want %d", n, retainedTerminalJobs)
	}
}
