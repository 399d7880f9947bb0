package serve_test

// Tests for the server's observability surface: /metrics exposition
// format and coverage, /statusz-vs-/metrics consistency (both render
// the same registry, so they must never disagree), the /trace JSONL
// ring, and the pprof mounts.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// parseExposition strictly validates Prometheus text format 0.0.4 and
// returns the samples keyed by full sample name including any label
// suffix (e.g. `simd_job_duration_seconds_bucket{le="+Inf"}`). Every
// sample must belong to a family announced by a preceding # TYPE line —
// a malformed line anywhere is an error, which is what lets the chaos
// soak use this as a mid-flight format check.
func parseExposition(body string) (map[string]float64, error) {
	samples := map[string]float64{}
	typed := map[string]string{}
	for i, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad HELP %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad TYPE %q", i+1, line)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", i+1, kind)
			}
			typed[name] = kind
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unexpected comment %q", i+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d: unparseable sample %q", i+1, line)
			}
			name, raw := m[1], m[3]
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typed[strings.TrimSuffix(name, suf)] == "histogram" {
					family = strings.TrimSuffix(name, suf)
					break
				}
			}
			if typed[family] == "" {
				return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", i+1, name)
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", i+1, raw, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	return samples, nil
}

// scrapeMetrics GETs /metrics, validates the exposition strictly, and
// returns the parsed samples.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics: Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseExposition(string(body))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n---\n%s", err, body)
	}
	return samples
}

// TestMetricsEndpointCoversJobLedger: after running jobs, /metrics
// carries the acceptance-criteria families — queue depth, shed count,
// the job latency histogram and retry count — plus the pre-registered
// engine families, all in valid exposition format.
func TestMetricsEndpointCoversJobLedger(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	for i := 0; i < 3; i++ {
		v, resp := submit(t, ts, fmt.Sprintf(`{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":%d}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		waitTerminal(t, ts, v.ID, 10*time.Second)
	}

	mets := scrapeMetrics(t, ts)
	for name, want := range map[string]float64{
		"simd_jobs_accepted_total":                    3,
		"simd_jobs_completed_total":                   3,
		"simd_jobs_shed_total":                        0,
		"simd_job_duration_seconds_count":             3,
		`simd_job_duration_seconds_bucket{le="+Inf"}`: 3,
		"simd_queue_depth":                            0,
		"simd_workers":                                2,
	} {
		got, ok := mets[name]
		if !ok {
			t.Errorf("missing sample %s", name)
		} else if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if mets["simd_job_duration_seconds_sum"] <= 0 {
		t.Errorf("latency histogram sum = %v, want > 0", mets["simd_job_duration_seconds_sum"])
	}
	// Retry counter and engine families are exposed even at zero.
	for _, name := range []string{
		"simd_job_retries_total", "simd_jobs_failed_total", "simd_uptime_seconds",
		"grid_cells_completed_total", "planner_cache_hits_total", "mission_frames_total",
		"grid_shards_total", "grid_shards_scalar_total",
	} {
		if _, ok := mets[name]; !ok {
			t.Errorf("missing family %s", name)
		}
	}
}

// TestStatuszMatchesMetrics: satellite 1 — /statusz is re-derived from
// the telemetry registry, so its ledger and queue figures must be
// bit-identical to what /metrics reports once the server is quiescent.
func TestStatuszMatchesMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{QueueDepth: 2, Workers: 1})
	var ids []string
	for i := 0; i < 8; i++ {
		v, resp := submit(t, ts, fmt.Sprintf(`{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":%d}`, i+1))
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			ids = append(ids, v.ID)
		}
	}
	for _, id := range ids {
		waitTerminal(t, ts, id, 10*time.Second)
	}
	// One store-configured grid job so the store_* ledger is live on both
	// surfaces (§11 consistency extends to the tiered-store families).
	gv, gresp := submit(t, ts, `{"kind":"grid","table":"1a","reps":40,"seed":9,"store":{"tiers":[{"name":"nvram","capacity":2,"write_cycles":5,"read_cycles":3},{"name":"flash","capacity":3,"write_cycles":10,"read_cycles":8}],"k":5,"policy":"quasi-geometric"}}`)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusAccepted {
		t.Fatalf("store grid submit: status %d", gresp.StatusCode)
	}
	waitTerminal(t, ts, gv.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Counters serve.CounterSnapshot `json:"counters"`
		QueueLen int                   `json:"queue_len"`
		QueueCap int                   `json:"queue_cap"`
		Workers  int                   `json:"workers"`
		Store    map[string]int64      `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	mets := scrapeMetrics(t, ts)

	for name, want := range map[string]int64{
		"simd_jobs_accepted_total":  st.Counters.Accepted,
		"simd_jobs_shed_total":      st.Counters.Shed,
		"simd_jobs_completed_total": st.Counters.Completed,
		"simd_jobs_failed_total":    st.Counters.Failed,
		"simd_jobs_canceled_total":  st.Counters.Canceled,
		"simd_job_retries_total":    st.Counters.Retries,
		"simd_job_panics_total":     st.Counters.Panics,
		"simd_queue_depth":          int64(st.QueueLen),
		"simd_queue_capacity":       int64(st.QueueCap),
		"simd_workers":              int64(st.Workers),
	} {
		if got := int64(mets[name]); got != want {
			t.Errorf("%s: /metrics = %d, /statusz = %d — surfaces disagree", name, got, want)
		}
	}
	if st.Counters.Accepted != int64(len(ids))+1 {
		t.Errorf("accepted = %d, submitted-and-accepted = %d", st.Counters.Accepted, len(ids)+1)
	}

	// The store ledger must be present after a store-configured job, carry
	// every counter family, agree with /metrics sample-for-sample, and
	// show real tier-0 write traffic.
	if len(st.Store) == 0 {
		t.Fatal("statusz store ledger absent after a store-configured grid job")
	}
	for _, name := range experiment.StoreCounterNames() {
		want, ok := st.Store[name]
		if !ok {
			t.Errorf("statusz store ledger missing %s", name)
			continue
		}
		if got := int64(mets[name]); got != want {
			t.Errorf("%s: /metrics = %d, /statusz = %d — surfaces disagree", name, got, want)
		}
	}
	if st.Store["store_tier0_writes_total"] == 0 {
		t.Error("store_tier0_writes_total = 0 after a store-configured grid job")
	}
	if st.Store["store_recoveries_total"]+st.Store["store_restarts_total"] == 0 {
		t.Error("no store recoveries or restarts recorded on table 1a — fault injection should have forced rollbacks")
	}
	// The store grid job batches every shard; the single runs are not
	// grid shards at all.
	if mets["grid_shards_total"] == 0 || mets["grid_shards_scalar_total"] != 0 {
		t.Errorf("grid_shards_scalar_total = %v of grid_shards_total = %v, want 0 of >0",
			mets["grid_shards_scalar_total"], mets["grid_shards_total"])
	}
}

// TestTraceEndpoint: the run-trace ring streams well-formed JSONL with
// monotonic sequence numbers and records the job lifecycle; ?n= limits
// to the newest n events and bad n is a 400.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	v, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":5}`)
	resp.Body.Close()
	waitTerminal(t, ts, v.ID, 10*time.Second)

	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d", tresp.StatusCode)
	}
	seen := map[string]bool{}
	lastSeq := int64(-1)
	lines := 0
	sc := bufio.NewScanner(tresp.Body)
	for sc.Scan() {
		var ev struct {
			Seq  int64          `json:"seq"`
			T    int64          `json:"t_unix_ns"`
			Name string         `json:"name"`
			Attr map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("seq %d after %d: not monotonic", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen[ev.Name] = true
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job.accepted", "job.attempt", "job.done"} {
		if !seen[want] {
			t.Errorf("trace missing %s event (saw %v)", want, seen)
		}
	}

	one, err := http.Get(ts.URL + "/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(one.Body)
	one.Body.Close()
	if got := strings.Count(string(body), "\n"); got != 1 {
		t.Errorf("/trace?n=1 returned %d lines, want 1", got)
	}
	bad, err := http.Get(ts.URL + "/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("/trace?n=bogus: status %d, want 400", bad.StatusCode)
	}
	if lines <= 1 {
		t.Errorf("trace held %d events, expected the full job lifecycle", lines)
	}
}

// TestPprofMounted: the profiling surface answers on the job mux.
func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
