//go:build go1.24

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"weak"

	"repro/internal/storage"
)

// TestRecoveryNotRetained pins that a live server does not keep its
// boot-time Recovery: once applyRecovery has restored what the bounded
// ledger retains, the replayed jobs and their result blobs are garbage,
// while /statusz still reports the replay's clean-shutdown flag.
func TestRecoveryNotRetained(t *testing.T) {
	mem := storage.NewMemLog()
	jl := NewJournal(mem, 1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	spec := JobSpec{Kind: JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014, Seed: 1}
	must(jl.AppendAccepted("job-000001", spec))
	must(jl.AppendAttempt("job-000001", 1))
	must(jl.AppendFinished("job-000001", StateDone, "", 1, json.RawMessage(`{"time":1.5}`)))
	must(jl.AppendShutdown(true, 0))
	blob, err := mem.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec := ReplayJournal(blob)
	if !rec.CleanShutdown || len(rec.Jobs) != 1 {
		t.Fatalf("replay: clean=%v jobs=%d, want a clean shutdown and one job", rec.CleanShutdown, len(rec.Jobs))
	}
	wRec, wJobs := weak.Make(rec), weak.Make(&rec.Jobs[0])

	s := New(Config{Workers: 1, Recovery: rec})
	defer s.Close()
	rec = nil
	runtime.GC()
	if wRec.Value() != nil {
		t.Error("the server keeps its Recovery reachable")
	}
	if wJobs.Value() != nil {
		t.Error("the server keeps the replayed job list reachable")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Recovery == nil || !st.Recovery.CleanShutdown || st.Recovery.JobsRecovered != 1 {
		t.Errorf("/statusz recovery = %+v, want clean_shutdown with one job recovered", st.Recovery)
	}
	if v, ok := s.Lookup("job-000001"); !ok || v.State != StateDone {
		t.Errorf("replayed job not restored (found %v)", ok)
	}
}
