package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/stats"
)

// libraryWorkers is the runner's worker count on the library
// workloads. With two workers on the 2-vCPU host, CPU time per rep rose
// by 40% over one worker and swung by up to 1.7x between runs of the
// same code (whole processes at a time), so the figures measured the
// neighbours, not the code; one worker is steady. Parallel scaling is
// therefore not measured here.
const libraryWorkers = 1

// extensionReps is the per-cell repetition count of extensions-scalar:
// the scalar engine runs ~5x slower than the kernel, so a pass stays
// near half a second and a run holds enough passes for its quantiles.
const extensionReps = 1000

var workloads = map[string]workload{
	"tables-cold": {
		name:      "tables-cold",
		clients:   func(*runEnv) int { return 1 },
		build:     buildLibrary(false),
		reference: libraryReference,
		refSample: 1,
	},
	"extensions-scalar": {
		name:      "extensions-scalar",
		clients:   func(*runEnv) int { return 1 },
		build:     buildLibrary(true),
		reference: libraryReference,
		refSample: 1,
	},
	"serve-jobs": {
		name:      "serve-jobs",
		clients:   func(env *runEnv) int { return env.nproc },
		build:     buildServe,
		reference: jobReference,
		refSample: 8,
	},
	"cluster-jobs": {
		name: "cluster-jobs",
		// One client: with two, a job waiting for a worker slot the other
		// job freed sleeps until the coordinator's 25 ms assign tick, and
		// those waits spread the latency quantiles by a third between
		// runs. One job at a time still keeps both workers busy.
		clients:   func(*runEnv) int { return 1 },
		build:     buildCluster,
		reference: jobReference,
		refSample: 8,
	},
}

// libraryStack runs tables through experiment.Runner in-process. One
// op is one pass over the workload's tables (the eight paper tables, or
// E3 and E4), each with a fresh seed: single tables differ in size by
// 2x, so per-table latencies would split the median between two table
// groups. There is nothing to set up beyond warming the code and the
// worker contexts.
type libraryStack struct {
	env        *runEnv
	tr         *tracer
	extensions bool
}

// libraryInput is what the reference needs to recompute one table.
type libraryInput struct {
	spec       experiment.Spec
	reps       int
	seed       uint64
	extensions bool
}

func buildLibrary(extensions bool) func(env *runEnv, tr *tracer) (stack, error) {
	return func(env *runEnv, tr *tracer) (stack, error) {
		st := &libraryStack{env: env, tr: tr, extensions: extensions}
		env.phase++
		// Warm-up: one pass at a tenth of the reps.
		for _, in := range st.inputs(opKey{phase: env.phase}) {
			in.reps /= 10
			if _, err := st.runTable(in, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return st, nil
	}
}

// inputs generates one op's pass: every table with its own seed.
func (st *libraryStack) inputs(p opKey) []libraryInput {
	g := p.gen(st.env.seed)
	var out []libraryInput
	if st.extensions {
		// E3 (imperfect FT) and E4 (tiered store) are the scalar-path
		// extension tables.
		for _, spec := range experiment.ExtensionTables()[2:4] {
			out = append(out, libraryInput{spec: spec, reps: extensionReps, seed: g.next(), extensions: true})
		}
		return out
	}
	for _, spec := range experiment.Tables() {
		out = append(out, libraryInput{spec: spec, reps: experiment.DefaultReps, seed: g.next()})
	}
	return out
}

func (st *libraryStack) runTable(in libraryInput, sink *runSink) (experiment.Table, error) {
	r := experiment.Runner{Reps: in.reps, Seed: in.seed, Workers: libraryWorkers}
	if sink != nil {
		r.Sink = sink
	}
	if in.extensions {
		return r.RunExtensionTable(in.spec)
	}
	return r.RunTable(in.spec)
}

func (st *libraryStack) op(p opKey) *opRecord {
	ins := st.inputs(p)
	o := &opRecord{key: p, kind: "pass", input: ins}
	var root int64
	if st.tr != nil {
		root = st.tr.newID()
	}
	o.start = time.Now()
	for _, in := range ins {
		var sink *runSink
		var run int64
		if st.tr != nil {
			run = st.tr.newID()
			sink = &runSink{tr: st.tr, op: p.id(), parent: run}
		}
		t0 := time.Now()
		tbl, err := st.runTable(in, sink)
		if st.tr != nil {
			st.tr.add(span{ID: run, Parent: root, Op: p.id(), Layer: "experiment", Name: "experiment.run." + in.spec.ID}, t0, time.Now())
		}
		if err != nil {
			o.err = err
			break
		}
		reps, err := tableLedger(tbl, in.reps)
		if err != nil {
			o.err = err
			break
		}
		o.reps += reps
		o.got = append(o.got, encodeTable(tbl)...)
		o.cells = append(o.cells, tableCells(tbl, in.spec, in.seed, in.reps, in.extensions)...)
	}
	o.end = time.Now()
	if st.tr != nil {
		st.tr.add(span{ID: root, Op: p.id(), Layer: "bench", Name: "bench.op"}, o.start, o.end)
	}
	return o
}

// tableLedger checks the exact rep ledger of a finished table: every
// cell done and the summed trials equal to cells × reps.
func tableLedger(tbl experiment.Table, reps int) (int64, error) {
	var trials, cells int64
	for _, row := range tbl.Rows {
		for _, c := range row.Cells {
			if !c.Done && !isExtension(tbl.Spec.ID) {
				return 0, fmt.Errorf("table %s: cell %s U=%v λ=%v not done", tbl.Spec.ID, c.Scheme, row.U, row.Lambda)
			}
			trials += int64(c.Trials)
			cells++
		}
	}
	if want := cells * int64(reps); trials != want || tbl.Reps != reps {
		return 0, fmt.Errorf("table %s: rep ledger %d trials, want %d cells x %d reps", tbl.Spec.ID, trials, cells, reps)
	}
	return trials, nil
}

// isExtension reports an extension table: RunExtensionTable does not
// set CellResult.Done, so only the trial ledger applies there.
func isExtension(id string) bool { return len(id) > 0 && id[0] == 'E' }

func (st *libraryStack) ledger([]*opRecord) error { return nil }

func (st *libraryStack) close() error { return nil }

func (st *libraryStack) layerMetrics(ph *phase) map[string]float64 {
	tr := st.tr
	m := runnerMetrics(tr, ph)
	var busy float64
	for _, o := range ph.ops {
		busy += o.end.Sub(o.start).Seconds()
	}
	if busy > 0 {
		// Share of the workers' time the process spent off-CPU while
		// tables ran: 1 - CPU / (workers x wall).
		m["experiment.worker_idle_ratio"] = math.Max(0, 1-ph.cpuSeconds/(libraryWorkers*busy))
	}
	return m
}

// runnerMetrics derives the experiment, core-plan and store metrics
// from the counters the runner's Sink received.
func runnerMetrics(tr *tracer, ph *phase) map[string]float64 {
	ops := float64(max(ph.ok(), 1))
	hits, misses := tr.counter(experiment.MetricPlannerHits), tr.counter(experiment.MetricPlannerMisses)
	m := map[string]float64{
		"experiment.shards":        tr.counter(experiment.MetricShards) / ops,
		"experiment.shards_stolen": tr.counter(experiment.MetricShardsStolen) / ops,
		"experiment.cell_ms_p50":   1000 * quantile(tr.observations(experiment.MetricCellSeconds), 0.5),
		"core.plan_misses":         misses / ops,
	}
	if hits+misses > 0 {
		m["core.plan_hit_ratio"] = hits / (hits + misses)
	}
	if k := float64(ph.reps()) / 1000; k > 0 {
		m["store.restarts_per_krep"] = tr.counter(experiment.MetricStoreRestarts) / k
		m["store.evictions_per_krep"] = tr.counter(experiment.MetricStoreEvictions) / k
	}
	if rec := tr.counter(experiment.MetricStoreRecoveries); rec > 0 {
		m["store.restart_ratio"] = tr.counter(experiment.MetricStoreRestarts) / rec
	}
	return m
}

// libraryReference recomputes an op's pass on the scalar reference
// path (DisableBatch) with a different worker count.
func libraryReference(op *opRecord) ([]byte, error) {
	var out []byte
	for _, in := range op.input.([]libraryInput) {
		r := experiment.Runner{Reps: in.reps, Seed: in.seed, Workers: 3, DisableBatch: true}
		var tbl experiment.Table
		var err error
		if in.extensions {
			tbl, err = r.RunExtensionTable(in.spec)
		} else {
			tbl, err = r.RunTable(in.spec)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, encodeTable(tbl)...)
	}
	return out, nil
}

// encodeTable is the canonical byte form of a table: every summary
// field as exact IEEE-754 bits.
func encodeTable(t experiment.Table) []byte {
	b := fmt.Appendf(nil, "%s|%d|", t.Spec.ID, t.Reps)
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	for _, row := range t.Rows {
		f(row.U)
		f(row.Lambda)
		for _, c := range row.Cells {
			b = append(b, c.Scheme...)
			b = append(b, '|')
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Trials))
			for _, x := range summaryFields(c.Summary) {
				f(x)
			}
		}
	}
	return b
}

func summaryFields(s stats.Summary) []float64 {
	return []float64{s.P, s.PCI, s.E, s.ECI, s.MeanFaults, s.MeanTime, s.MeanSwitches, s.TimeP50, s.TimeP95, s.SDC, s.SDCCI}
}

// tableCells lists a finished table's cells for the replay, with the
// summaries the replay must reproduce.
func tableCells(tbl experiment.Table, spec experiment.Spec, seed uint64, reps int, extensions bool) []cellRef {
	schemes := spec.Schemes()
	if extensions {
		var err error
		if schemes, err = experiment.ExtensionSchemes(spec.ID); err != nil {
			return nil
		}
	}
	var out []cellRef
	for _, row := range tbl.Rows {
		for ci, c := range row.Cells {
			out = append(out, cellRef{
				spec: spec, scheme: schemes[ci], u: row.U, lambda: row.Lambda, base: seed, reps: reps,
				shard: experiment.DefaultShardSize, want: libraryFields(c.Summary), fields: libraryFields,
			})
		}
	}
	return out
}

// libraryFields is every field of a cell summary, trial count first.
func libraryFields(s stats.Summary) []float64 {
	return append([]float64{float64(s.Trials)}, summaryFields(s)...)
}

// runSink is the experiment.Runner telemetry sink of a traced op: it
// forwards counters and histograms to the tracer and turns each
// cell.finish event into a core-layer span.
type runSink struct {
	tr     *tracer
	op     string
	parent int64
}

func (s *runSink) Count(name string, delta int64) { s.tr.count(name, float64(delta)) }

func (s *runSink) Observe(name string, v float64) { s.tr.observe(name, v) }

func (s *runSink) Event(name string, attrs map[string]any) {
	if name != "cell.finish" {
		return
	}
	sec, _ := attrs["seconds"].(float64)
	end := time.Now()
	s.tr.add(span{ID: s.tr.newID(), Parent: s.parent, Op: s.op, Layer: "core", Name: "core.cell"},
		end.Add(-time.Duration(sec*float64(time.Second))), end)
}
