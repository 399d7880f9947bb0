// Command simbench times the Monte-Carlo simulation stack end to end
// and writes the measurements to a JSON file (BENCH_simstack.json by
// default), so performance changes to the sim → core → experiment stack
// leave a comparable artefact in the repository history.
//
// Three workloads are timed:
//
//   - Table1a, Table3a: one full published sub-table grid through the
//     experiment runner — the run-context path with warm engines and
//     planners, exactly what `make tables` pays per table. Reported
//     per repetition (ns/rep, allocs/rep, reps/sec), and swept across
//     the -cpu list: each point pins GOMAXPROCS and the runner's worker
//     count to n and reports reps_per_sec plus speedup_vs_1cpu, the
//     scaling curve of the work-stealing rep-shard scheduler. Results
//     are bit-identical at every width, so the sweep measures pure
//     scheduling.
//   - SingleRunCtx: one execution of the headline scheme (A_D_S at the
//     paper's anchor cell) through a reused RunContext — the simulator's
//     warm inner-loop cost. Inherently serial; not swept.
//   - ReseedBatch, SpanWalk: sub-components — the kernels' batched
//     per-repetition seed-stream setup and the bulk arrival queue's
//     structure-of-arrays span walk (the kernels draw arrivals live) —
//     so a regression is attributable from the artefact alone.
//     Reported per repetition and per span respectively; serial, not
//     swept.
//
// Sweep widths above the schedulable CPU count are skipped outright
// (never recorded): on an undersized host they would measure scheduler
// contention, not scaling.
//
// The previous report is not thrown away: its summary (sans its own
// history) is appended to the new file's "history" array, so the
// committed artefact carries the performance trend, not just the latest
// point.
//
// Usage:
//
//	go run ./cmd/simbench [-out BENCH_simstack.json] [-reps 50]
//	                      [-cpu 1,2,4] [-short] [-check] [-baseline file]
//
// -short cuts the per-benchmark measuring time for CI smoke runs.
// -check compares the fresh single-CPU ns_per_rep of each workload
// against the baseline file (default: the committed BENCH_simstack.json)
// and exits non-zero if any regressed more than 15%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// cpuPoint is one width of a workload's scaling sweep. CPULimited
// flags a width that oversubscribes the machine (GOMAXPROCS above the
// schedulable CPU count): its speedup measures contention, not
// scaling, and consumers must not read it as a scaling regression.
type cpuPoint struct {
	NumCPU        int     `json:"num_cpu"`
	NsPerRep      float64 `json:"ns_per_rep"`
	RepsPerSec    float64 `json:"reps_per_sec"`
	SpeedupVs1CPU float64 `json:"speedup_vs_1cpu,omitempty"`
	// ParallelEfficiency is speedup divided by the width — 1.0 is
	// perfect scaling.
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	CPULimited         bool    `json:"cpu_limited,omitempty"`
}

// measurement is one timed workload, normalised per simulation rep. The
// scalar fields are the first sweep width (1 CPU by default) — the
// number -check and the history trend compare; CPUs carries the full
// sweep for the grid workloads.
type measurement struct {
	Name         string  `json:"name"`
	RepsPerOp    int     `json:"reps_per_op"`
	NsPerRep     float64 `json:"ns_per_rep"`
	AllocsPerRep float64 `json:"allocs_per_rep"`
	BytesPerRep  float64 `json:"bytes_per_rep"`
	RepsPerSec   float64 `json:"reps_per_sec"`
	// ShardSize is the repetitions-per-shard unit the grid workloads
	// ran with — the batch width of the structure-of-arrays kernel —
	// recorded so entries with different batching stay comparable.
	// Zero for unsharded workloads (SingleRunCtx).
	ShardSize int        `json:"shard_size,omitempty"`
	CPUs      []cpuPoint `json:"cpus,omitempty"`
}

// report is the file schema. History holds previous reports, oldest
// first, each with its own History stripped.
type report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Reps        int           `json:"reps_per_cell"`
	Short       bool          `json:"short"`
	CPUList     []int         `json:"cpu_list,omitempty"`
	Benchmarks  []measurement `json:"benchmarks"`
	History     []report      `json:"history,omitempty"`
}

// historyCap bounds the trend the artefact accumulates.
const historyCap = 20

// regressionTolerance is the relative ns_per_rep growth -check accepts.
const regressionTolerance = 0.15

func main() {
	testing.Init() // registers -test.* flags so benchtime is settable
	out := flag.String("out", "BENCH_simstack.json", "output file path")
	reps := flag.Int("reps", 50, "Monte-Carlo repetitions per table cell")
	cpuList := flag.String("cpu", "1,2,4", "comma-separated GOMAXPROCS sweep for the grid workloads")
	short := flag.Bool("short", false, "cut measuring time (CI smoke)")
	check := flag.Bool("check", false, "fail if ns_per_rep regressed >15% vs the baseline file")
	baseline := flag.String("baseline", "", "baseline file for -check (default: the -out file's previous content)")
	showVersion := cli.VersionFlag()
	flag.Parse()
	if showVersion() {
		return
	}

	cpus, err := parseCPUList(*cpuList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(2)
	}
	// The default sweep assumes a multi-core host; on a smaller machine
	// (1-core CI containers) an oversubscribed width measures scheduler
	// contention, not scaling — a "4 cpu" row with speedup ≈ 0.97 is
	// noise that poisons the artefact's trend. Such widths are skipped
	// outright (with a notice), never recorded, even when -cpu names
	// them explicitly.
	kept := cpus[:0]
	for _, n := range cpus {
		if n > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr, "simbench: skipping %d-cpu sweep (host schedules %d)\n", n, runtime.NumCPU())
			continue
		}
		kept = append(kept, n)
	}
	cpus = kept
	if len(cpus) == 0 {
		cpus = append(cpus, 1)
	}

	if *short {
		// testing.Benchmark honours the -test.benchtime flag value.
		if f := flag.Lookup("test.benchtime"); f != nil {
			f.Value.Set("0.2s")
		}
	}

	// The previous committed report is both the -check baseline and the
	// next history entry.
	baselinePath := *baseline
	if baselinePath == "" {
		baselinePath = *out
	}
	prev, prevErr := readReport(baselinePath)

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Reps:        *reps,
		Short:       *short,
		CPUList:     cpus,
	}
	for _, id := range []string{"1a", "3a"} {
		m, err := benchTable(id, *reps, cpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: table %s: %v\n", id, err)
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, m)
		printMeasurement(m)
	}
	for _, m := range []measurement{benchSingleRunCtx(), benchReseedBatch(), benchSpanWalk()} {
		rep.Benchmarks = append(rep.Benchmarks, m)
		printMeasurement(m)
	}

	// Append, never overwrite: the old report joins the trend.
	if prevErr == nil {
		hist := prev.History
		prev.History = nil
		rep.History = append(hist, prev)
		if len(rep.History) > historyCap {
			rep.History = rep.History[len(rep.History)-historyCap:]
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *check {
		if prevErr != nil {
			fmt.Fprintf(os.Stderr, "simbench: -check: no baseline (%v); treating as pass\n", prevErr)
			return
		}
		if failures := checkRegressions(prev, rep); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "simbench: REGRESSION %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("bench-check: ok (within %.0f%% of %s)\n", regressionTolerance*100, baselinePath)
	}
}

func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -cpu entry %q (want positive integers)", part)
		}
		cpus = append(cpus, n)
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("empty -cpu list")
	}
	return cpus, nil
}

func readReport(path string) (report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return report{}, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// checkRegressions compares same-name workloads' scalar ns_per_rep
// (the first sweep width) between the baseline and the fresh run.
// Baselines whose headline width was oversubscribed (cpu_limited —
// recorded by versions that still emitted such rows) measured
// contention, not the kernel, and are ignored.
func checkRegressions(old, fresh report) []string {
	byName := map[string]measurement{}
	for _, m := range old.Benchmarks {
		byName[m.Name] = m
	}
	var failures []string
	for _, m := range fresh.Benchmarks {
		o, ok := byName[m.Name]
		if !ok || o.NsPerRep <= 0 {
			continue
		}
		if len(o.CPUs) > 0 && o.CPUs[0].CPULimited {
			continue
		}
		if m.NsPerRep > o.NsPerRep*(1+regressionTolerance) {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/rep vs baseline %.0f (+%.1f%%, tolerance %.0f%%; baseline host %s, this run %s)",
				m.Name, m.NsPerRep, o.NsPerRep,
				100*(m.NsPerRep/o.NsPerRep-1), regressionTolerance*100,
				hostContext(old), hostContext(fresh)))
		}
	}
	return failures
}

// hostContext names the toolchain and machine a report was recorded
// on: the absolute ns/rep gate compares across hosts, so a regression
// line must show whether the two sides are comparable at all.
func hostContext(r report) string {
	return fmt.Sprintf("%s %s num_cpu=%d at %s", r.GoVersion, r.GOARCH, r.NumCPU, r.GeneratedAt)
}

func printMeasurement(m measurement) {
	fmt.Printf("%-12s %10.0f ns/rep %8.1f allocs/rep %12.0f reps/sec\n",
		m.Name, m.NsPerRep, m.AllocsPerRep, m.RepsPerSec)
	for _, p := range m.CPUs {
		limited := ""
		if p.CPULimited {
			limited = "  (cpu-limited)"
		}
		fmt.Printf("  %2d cpu  %12.0f reps/sec  %5.2fx vs 1 cpu  eff %4.2f%s\n",
			p.NumCPU, p.RepsPerSec, p.SpeedupVs1CPU, p.ParallelEfficiency, limited)
	}
}

// benchTable times one full sub-table grid per op at each sweep width
// and normalises by the total repetition count the grid runs.
func benchTable(id string, reps int, cpus []int) (measurement, error) {
	spec, err := experiment.TableByID(id)
	if err != nil {
		return measurement{}, err
	}

	// One warm-up run, which also counts the trials per op.
	tbl, err := experiment.Runner{Reps: reps, Seed: 1, Workers: 1}.RunTable(spec)
	if err != nil {
		return measurement{}, err
	}
	total := 0
	for _, row := range tbl.Rows {
		for _, c := range row.Cells {
			total += c.Summary.Trials
		}
	}

	var m measurement
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for i, n := range cpus {
		runtime.GOMAXPROCS(n)
		runner := experiment.Runner{Reps: reps, Seed: 1, Workers: n}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunTable(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		point := normalise("Table"+id, br, total)
		if i == 0 {
			m = point
			m.ShardSize = experiment.DefaultShardSize
		}
		pt := cpuPoint{
			NumCPU:     n,
			NsPerRep:   point.NsPerRep,
			RepsPerSec: point.RepsPerSec,
			CPULimited: n > runtime.NumCPU(),
		}
		if base := m.RepsPerSec; base > 0 {
			pt.SpeedupVs1CPU = point.RepsPerSec / base
			pt.ParallelEfficiency = pt.SpeedupVs1CPU / float64(n)
		}
		m.CPUs = append(m.CPUs, pt)
	}
	return m, nil
}

// benchSingleRunCtx times the warm context path of one A_D_S execution
// at the paper's anchor cell (U = 0.78, λ = 0.0014, k = 5).
func benchSingleRunCtx() measurement {
	tk, _ := task.FromUtilization("bench", 0.78, 1, 10000, 5)
	p := sim.Params{Task: tk, Costs: checkpoint.SCPSetting(), Lambda: 0.0014}
	s := core.NewAdaptDVSSCP()
	rctx := sim.NewRunContext()
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sim.RunScheme(rctx, s, p, rctx.Reseed(uint64(i)+1))
		}
	})
	return normalise("SingleRunCtx", br, 1)
}

// benchReseedBatch times the batched seed-stream setup a shard pays
// before its kernel runs — bulk counter-based stream derivation, the
// one-pass generator-state materialisation and the per-repetition
// state installs — normalised per repetition. Mirrors
// core.BenchmarkReseedBatch.
func benchReseedBatch() measurement {
	const batch = 128
	bctx := sim.NewBatchContext()
	bctx.Grow(batch)
	src := bctx.Source()
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng.StreamBatch(42, i*batch, bctx.Seeds[:batch])
			bctx.States.Reseed(bctx.Seeds[:batch])
			for j := 0; j < batch; j++ {
				bctx.States.Load(src, j)
			}
		}
	})
	return normalise("ReseedBatch", br, batch)
}

// benchSpanWalk times the bulk arrival queue's structure-of-arrays
// consumption — the straight-line walk counting the fault arrivals in
// each checkpoint span by index arithmetic — normalised per span.
// Mirrors core.BenchmarkArrivalSpanWalk.
func benchSpanWalk() measurement {
	const (
		spans  = 4096
		span   = 0.05
		lambda = 0.0014
	)
	bctx := sim.NewBatchContext()
	arr := bctx.Arrivals()
	faults := 0
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			arr.Reset(lambda, rng.New(uint64(i)+1), 64)
			times := arr.Times()
			x, pos := 0.0, 0
			for s := 0; s < spans; s++ {
				end := x + span
				if times[len(times)-1] < end {
					times = arr.EnsureBeyond(end)
				}
				p0 := pos
				for times[pos] < end {
					pos++
				}
				faults += pos - p0
				x = end
			}
		}
	})
	_ = faults
	return normalise("SpanWalk", br, spans)
}

func normalise(name string, br testing.BenchmarkResult, repsPerOp int) measurement {
	nsPerOp := float64(br.NsPerOp())
	return measurement{
		Name:         name,
		RepsPerOp:    repsPerOp,
		NsPerRep:     nsPerOp / float64(repsPerOp),
		AllocsPerRep: float64(br.AllocsPerOp()) / float64(repsPerOp),
		BytesPerRep:  float64(br.AllocedBytesPerOp()) / float64(repsPerOp),
		RepsPerSec:   float64(repsPerOp) / (nsPerOp * 1e-9),
	}
}
