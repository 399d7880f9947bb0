package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// runEnv is the state one run shares across its stacks.
type runEnv struct {
	seed  uint64
	nproc int
	// phase numbers measurement windows and set-up rounds so that no two
	// of them generate the same op inputs.
	phase int
	// fileJournal puts the serve journal on a real file (the traced run);
	// otherwise it writes to a counting, discarding store.
	fileJournal bool
}

// workload is one traffic mix. Every field is fixed by the benchmark;
// only the seed varies between runs.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients func(env *runEnv) int
	// build sets up a stack and warms it; tr is nil on untraced runs.
	build func(env *runEnv, tr *tracer) (stack, error)
	// reference recomputes an op's result through the reference path
	// and returns its canonical bytes.
	reference func(op *opRecord) ([]byte, error)
	// refSample is how many ops per window the reference recomputes.
	refSample int
}

// stack is a built system under test.
type stack interface {
	// op runs one operation and returns its record; it never panics on
	// a failed operation, it records the failure.
	op(p opKey) *opRecord
	// ledger checks the stack-wide rep ledger against the ops it ran.
	ledger(ops []*opRecord) error
	// layerMetrics derives the per-layer metrics of a traced window.
	layerMetrics(ph *phase) map[string]float64
	close() error
}

// opKey addresses one generated op; its inputs are a pure function of
// (run seed, phase, client, k).
type opKey struct {
	phase, client, k int
}

func (p opKey) id() string { return fmt.Sprintf("p%d-c%d-%d", p.phase, p.client, p.k) }

// gen returns the op's deterministic input generator.
func (p opKey) gen(seed uint64) *gen {
	return newGen(seed ^ mix64(uint64(p.phase)<<48^uint64(p.client)<<32^uint64(p.k)))
}

// opRecord is one finished operation.
type opRecord struct {
	key        opKey
	kind       string
	start, end time.Time
	// reps is the number of Monte-Carlo repetitions the op computed.
	reps int64
	// got is the op's canonical result bytes, compared byte for byte
	// against the reference.
	got []byte
	// err marks a failed, shed or wrong op.
	err error
	// input is the workload-specific op input, for the reference.
	input any
	// cells lists the grid cells the op ran, for the lower-layer replay.
	cells []cellRef
	// Job-path timings (zero on the library workloads).
	submitMS, queueMS, execMS float64
	cacheHit                  bool
}

func (o *opRecord) latencyMS() float64 {
	if o.err != nil {
		return math.Inf(1) // a failed op misses every latency limit
	}
	return float64(o.end.Sub(o.start)) / 1e6
}

// phase is one measured window.
type phase struct {
	ops        []*opRecord
	wall       time.Duration
	cpuSeconds float64
	ledgerErr  error
	// slices cut the window's first dur into equal parts; each rate and
	// quantile is taken per slice and the median across slices reported,
	// so a few seconds of a busy neighbour move one slice, not the run.
	slices []slice
}

// slices is how many equal parts a window's rates are measured over.
const slices = 5

type slice struct {
	start, end time.Time
	cpu        float64 // process CPU seconds spent in the slice
}

func (ph *phase) attempted() int { return len(ph.ops) }

func (ph *phase) reps() int64 {
	var n int64
	for _, o := range ph.ops {
		if o.err == nil {
			n += o.reps
		}
	}
	return n
}

func (ph *phase) ok() int {
	n := 0
	for _, o := range ph.ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

// sliced returns the median over slices of f(slice, ok ops' reps and
// op count attributed to it); an op's work is spread evenly over its
// duration, so ops longer than a slice count in every slice they span.
func (ph *phase) sliced(f func(sl slice, reps, ops float64) float64) float64 {
	var xs []float64
	for _, sl := range ph.slices {
		var reps, ops float64
		for _, o := range ph.ops {
			if o.err != nil {
				continue
			}
			lo, hi := maxTime(o.start, sl.start), minTime(o.end, sl.end)
			if d := o.end.Sub(o.start); hi.After(lo) && d > 0 {
				share := float64(hi.Sub(lo)) / float64(d)
				reps += share * float64(o.reps)
				ops += share
			}
		}
		xs = append(xs, f(sl, reps, ops))
	}
	return median(xs)
}

func (ph *phase) repsPerSec() float64 {
	return ph.sliced(func(sl slice, reps, _ float64) float64 { return reps / sl.end.Sub(sl.start).Seconds() })
}

func (ph *phase) opsPerSec() float64 {
	return ph.sliced(func(sl slice, _, ops float64) float64 { return ops / sl.end.Sub(sl.start).Seconds() })
}

func (ph *phase) cpuPerMrep() float64 {
	return ph.sliced(func(sl slice, reps, _ float64) float64 { return sl.cpu / (reps / 1e6) })
}

// latencyMS is the median over slices of the q-quantile latency of the
// ops that ended in the slice (the last slice also takes the ops that
// ended after the window).
func (ph *phase) latencyMS(q float64) float64 {
	var xs []float64
	for i, sl := range ph.slices {
		var lat []float64
		for _, o := range ph.ops {
			if !o.end.Before(sl.start) && (o.end.Before(sl.end) || i == len(ph.slices)-1) {
				lat = append(lat, o.latencyMS())
			}
		}
		if len(lat) > 0 {
			xs = append(xs, quantile(lat, q))
		}
	}
	return median(xs)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// sorted returns the ops in generation order, independent of the order
// concurrent clients finished them.
func (ph *phase) sorted() []*opRecord { return sortedOps(ph.ops) }

func sortedOps(ops []*opRecord) []*opRecord {
	s := append([]*opRecord(nil), ops...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i].key, s[j].key
		if a.client != b.client {
			return a.client < b.client
		}
		return a.k < b.k
	})
	return s
}

func (ph *phase) describe() string {
	beyond := len(ph.ops) - int(math.Ceil(0.9*float64(len(ph.ops))))
	s := fmt.Sprintf("ops=%d ok=%d reps=%d wall_s=%.3f cpu_s=%.3f p90_samples_beyond=%d",
		len(ph.ops), ph.ok(), ph.reps(), ph.wall.Seconds(), ph.cpuSeconds, beyond)
	byKind := map[string][]float64{}
	for _, o := range ph.ops {
		byKind[o.kind] = append(byKind[o.kind], o.latencyMS())
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s += fmt.Sprintf(" %s:n=%d,p50_ms=%.2f", k, len(byKind[k]), quantile(byKind[k], 0.5))
	}
	return s
}

// measure runs the workload's closed-loop clients against st for dur:
// each client issues its next op only when the previous one finished,
// and no client starts an op after the deadline. Ops in flight at the
// deadline run to completion and count.
func measure(st stack, w workload, env *runEnv, dur time.Duration) *phase {
	env.phase++
	ph := &phase{}
	clients := w.clients(env)
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				op := st.op(opKey{phase: env.phase, client: c, k: k})
				mu.Lock()
				ph.ops = append(ph.ops, op)
				mu.Unlock()
			}
		}(c)
	}
	// Close each slice on time with the CPU spent in it.
	cpuPrev := cpu0
	for i := 1; i <= slices; i++ {
		end := t0.Add(dur * time.Duration(i) / slices)
		time.Sleep(time.Until(end))
		c := cpuSeconds()
		ph.slices = append(ph.slices, slice{start: t0.Add(dur * time.Duration(i-1) / slices), end: end, cpu: c - cpuPrev})
		cpuPrev = c
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.cpuSeconds = cpuSeconds() - cpu0
	ph.ledgerErr = st.ledger(ph.ops)
	return ph
}

// verdict is the correctness gate of one window.
type verdict struct {
	failed, opErrors, refChecked, refMismatch int
	ledgerErr                                 error
	selfTest                                  error
	// problems are the lines naming each failed op.
	problems []string
}

func (v verdict) correct() bool {
	return v.failed == 0 && v.ledgerErr == nil && v.selfTest == nil
}

func (v verdict) describe() string {
	s := fmt.Sprintf("failed=%d op_errors=%d ref_checked=%d ref_mismatch=%d", v.failed, v.opErrors, v.refChecked, v.refMismatch)
	if v.ledgerErr != nil {
		s += fmt.Sprintf(" ledger_error=%q", v.ledgerErr.Error())
	}
	if v.selfTest != nil {
		s += fmt.Sprintf(" self_test_error=%q", v.selfTest.Error())
	}
	return s
}

// okRatio is the share of attempted ops that did not fail.
func okRatio(attempted, failed int) float64 {
	return float64(attempted-failed) / float64(max(attempted, 1))
}

// verify gates a window outside its timing (see tally), then runs the
// self-test: it corrupts one result that passed the reference check,
// tallies the window again with that op swapped in, and requires the
// failed count to rise by exactly one, so that ok_ratio falls.
func verify(w workload, env *runEnv, ph *phase) verdict {
	refs := map[opKey]reference{}
	v, passed := tally(w, env, ph.ops, ph.ledgerErr, refs)
	for _, p := range v.problems {
		fmt.Print(p)
	}
	switch {
	case v.ledgerErr != nil:
		// Every op already counts as failed; a corruption cannot add one.
	case len(passed) > 0:
		good := passed[len(passed)-1]
		bad := *good
		bad.got = append([]byte(nil), good.got...)
		bad.got[len(bad.got)/2] ^= 0x01
		ops := make([]*opRecord, len(ph.ops))
		for i, o := range ph.ops {
			ops[i] = o
			if o == good {
				ops[i] = &bad
			}
		}
		sv, _ := tally(w, env, ops, ph.ledgerErr, refs)
		n := len(ph.ops)
		if sv.failed != v.failed+1 || okRatio(n, sv.failed) >= okRatio(n, v.failed) {
			v.selfTest = fmt.Errorf("a corrupted result of op %s moved the failed count from %d to %d, want %d",
				good.key.id(), v.failed, sv.failed, v.failed+1)
		}
	case w.refSample > 0 && ph.ok() > 0:
		v.selfTest = fmt.Errorf("no op was verified against the reference")
	}
	return v
}

// reference is an op's result recomputed through the reference path.
type reference struct {
	want []byte
	err  error
}

// tally counts a window's failed ops: op errors (failed, shed, or wrong
// structure or rep ledger), every op when the stack-wide ledger broke,
// and mismatches in a seeded sample of ops recomputed through the
// reference path and compared byte for byte. The sample depends only on
// the seed and the ops' keys. refs caches the recomputed results by op,
// so tallying the same window twice recomputes nothing. It returns the
// sampled ops that matched their reference.
func tally(w workload, env *runEnv, ops []*opRecord, ledgerErr error, refs map[opKey]reference) (verdict, []*opRecord) {
	v := verdict{ledgerErr: ledgerErr}
	failed := map[*opRecord]bool{}
	for _, o := range ops {
		if o.err != nil {
			failed[o] = true
			v.opErrors++
			v.problems = append(v.problems, fmt.Sprintln("op_error", o.key.id(), o.kind, o.err))
		}
	}
	if ledgerErr != nil {
		for _, o := range ops {
			failed[o] = true
		}
	}
	var candidates, passed []*opRecord
	for _, o := range sortedOps(ops) {
		if o.err == nil && !o.cacheHit {
			candidates = append(candidates, o)
		}
	}
	g := newGen(env.seed ^ 0x5eed5a3b1e)
	for i := 0; i < w.refSample && len(candidates) > 0; i++ {
		j := g.intn(len(candidates))
		o := candidates[j]
		candidates = append(candidates[:j], candidates[j+1:]...)
		ref, ok := refs[o.key]
		if !ok {
			ref.want, ref.err = w.reference(o)
			refs[o.key] = ref
		}
		v.refChecked++
		if ref.err != nil || !bytes.Equal(o.got, ref.want) {
			v.refMismatch++
			failed[o] = true
			v.problems = append(v.problems, fmt.Sprintln("ref_mismatch", o.key.id(), o.kind, ref.err))
			continue
		}
		passed = append(passed, o)
	}
	v.failed = len(failed)
	return v, passed
}

// gen is a small SplitMix64 generator for op inputs.
type gen struct{ s uint64 }

func newGen(seed uint64) *gen { return &gen{s: seed} }

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return mix64(g.s)
}

func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
