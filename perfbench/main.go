// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time from a seed, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory defines them.
//
//	bash perfbench/run.sh --workload tables-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start for the first set-up.
var processStart = time.Now()

// setupRounds is how many times a run builds its stack; setup_s is the
// median, so one slow build (the first, which pays page faults and
// runtime start) does not move it.
const setupRounds = 9

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: tables-cold, extensions-scalar, serve-jobs or cluster-jobs")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is one metric as BENCHMARK.json declares it; the file is
// the single list of metric names and units this program prints.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var endToEnd, perLayerNames []metricDef

func loadDefs() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	endToEnd, perLayerNames = b.EndToEnd, b.PerLayer
	return nil
}

// checkDeclared requires m to hold exactly the declared metrics, each
// with its declared unit.
func checkDeclared(m map[string]metric, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(m), len(defs))
	}
	for _, d := range defs {
		if got, ok := m[d.Name]; !ok || got.Unit != d.Unit {
			return fmt.Errorf("metric %s: measured %+v, declared unit %s", d.Name, got, d.Unit)
		}
	}
	return nil
}

func run(o options) error {
	if err := loadDefs(); err != nil {
		return err
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	env := &runEnv{seed: o.seed, nproc: nproc}

	host := hostContext(nproc)
	host["workload"] = o.workload
	host["seed"] = o.seed
	host["seconds"] = o.seconds
	host["trace"] = o.trace
	if line, err := json.Marshal(host); err == nil {
		fmt.Println("host", string(line))
	}

	var res result
	var err error
	if o.trace {
		res, err = runTraced(w, env, o)
	} else {
		res, err = runUntraced(w, env, o)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayerNames
	}
	if err := checkDeclared(res.Metrics, defs); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildStacks runs setupRounds set-ups and returns the last stack with
// the median set-up time; the first round is timed from process start.
func buildStacks(w workload, env *runEnv, tr *tracer) (stack, float64, error) {
	var times []float64
	var st stack
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		s, err := w.build(env, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return nil, 0, fmt.Errorf("tear-down: %w", err)
			}
		}
		st = s
	}
	return st, median(times), nil
}

func runUntraced(w workload, env *runEnv, o options) (result, error) {
	st, setup, err := buildStacks(w, env, nil)
	if err != nil {
		return result{}, err
	}
	ph := measure(st, w, env, secondsDur(o.seconds))
	// Read before verify: the reference recompute must not raise the
	// high-water mark.
	rss := peakRSSMB()
	if err := st.close(); err != nil {
		return result{}, fmt.Errorf("tear-down: %w", err)
	}
	v := verify(w, env, ph)
	fmt.Println("summary", ph.describe(), v.describe())
	m := map[string]metric{
		"setup_s":        {setup, "s"},
		"reps_per_sec":   {ph.repsPerSec(), "1/s"},
		"ops_per_sec":    {ph.opsPerSec(), "1/s"},
		"op_ms_p50":      {ph.latencyMS(0.5), "ms"},
		"op_ms_p90":      {ph.latencyMS(0.9), "ms"},
		"ok_ratio":       {okRatio(ph.attempted(), v.failed), "ratio"},
		"cpu_s_per_mrep": {ph.cpuPerMrep(), "s"},
		"peak_rss_mb":    {rss, "MB"},
	}
	return result{Correct: v.correct(), Attempted: ph.attempted(), Failed: v.failed, Metrics: m}, nil
}

// runTraced measures the workload untraced, then traced, then replays
// a sample of its cells through the lower layers. The per-layer metrics
// come from the traced window and the replay; the first window only
// anchors trace.overhead_ratio. Both windows journal to a real file, so
// the storage metrics time the program's own store and fsync.
func runTraced(w workload, env *runEnv, o options) (result, error) {
	total := secondsDur(o.seconds)
	env.fileJournal = true
	st, _, err := buildStacks(w, env, nil)
	if err != nil {
		return result{}, err
	}
	plain := measure(st, w, env, total*2/5)
	if err := st.close(); err != nil {
		return result{}, fmt.Errorf("tear-down: %w", err)
	}

	tr := newTracer()
	st, err = w.build(env, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	tr.reset() // keep only the measured window's spans
	traced := measure(st, w, env, total*2/5)
	lm := st.layerMetrics(traced)
	if err := st.close(); err != nil {
		return result{}, fmt.Errorf("tear-down: %w", err)
	}

	rp := replayCells(traced, total/5)
	v1, v2 := verify(w, env, plain), verify(w, env, traced)
	failed := v1.failed + v2.failed + rp.badOps
	fmt.Println("summary untraced", plain.describe(), v1.describe())
	fmt.Println("summary traced", traced.describe(), v2.describe(), fmt.Sprintf("replay_mismatches=%d", rp.mismatches))

	m := map[string]metric{}
	for _, d := range perLayerNames {
		m[d.Name] = metric{0, d.Unit}
	}
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			panic("perfbench: per-layer metric not declared: " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		d.Value = v
		m[name] = d
	}
	for k, v := range lm {
		set(k, v)
	}
	for k, v := range rp.metrics() {
		set(k, v)
	}
	att := tr.attribute()
	for k, v := range att.metrics() {
		set(k, v)
	}
	if r := plain.repsPerSec(); r > 0 {
		set("trace.overhead_ratio", traced.repsPerSec()/r)
	}
	out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	if err := tr.writeJSONL(out); err != nil {
		return result{}, err
	}
	fmt.Printf("trace %s spans=%d layer_sum_ratio=%.4f residual_ratio=%.4f\n", out, len(tr.spans), att.layerSum, att.residual)
	attempted := plain.attempted() + traced.attempted()
	ok := v1.correct() && v2.correct() && rp.mismatches == 0
	return result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
