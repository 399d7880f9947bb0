// Package telemetry is the repo's zero-dependency observability layer:
// a concurrent metrics registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text-format exposition, a
// bounded run tracer with JSONL export, and the Sink interface the
// engines report through.
//
// The design constraint is the simulator's hot path: instrumentation is
// attached at cell/frame/job granularity, never per simulated interval,
// and every hook is nil-guarded with a no-op default, so an
// uninstrumented run stays zero-alloc (BenchmarkTable1aSinkOverhead
// times the none / nop / live-sink cases on the Table 1a grid).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered family: everything the registry needs to
// expose it.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string
	// writeSamples appends the family's sample lines (no HELP/TYPE).
	writeSamples(b *strings.Builder)
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name of the same type returns the existing instance; a name collision
// across types panics (a programming error, like a duplicate flag).
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// validName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds m under its name, or returns the already-registered
// metric for that name. want is the caller's concrete type name, used
// for the collision diagnostic.
func (r *Registry) register(m metric) metric {
	name := m.metricName()
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if prev.metricType() != m.metricType() {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)",
				name, m.metricType(), prev.metricType()))
		}
		return prev
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]metric, len(r.ordered))
	copy(fams, r.ordered)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].metricName() < fams[j].metricName() })

	var b strings.Builder
	for _, m := range fams {
		b.WriteString("# HELP ")
		b.WriteString(m.metricName())
		b.WriteByte(' ')
		b.WriteString(escapeHelp(m.metricHelp()))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(m.metricName())
		b.WriteByte(' ')
		b.WriteString(m.metricType())
		b.WriteByte('\n')
		m.writeSamples(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value: integral floats print without an
// exponent or decimal point, everything else in the shortest exact form.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- Counter ---

// Counter is a monotonically non-decreasing atomic count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(&Counter{name: name, help: help}).(*Counter)
}

// Add increments the counter by delta; negative deltas are ignored
// (counters are monotonic by contract).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeSamples(b *strings.Builder) {
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.v.Load(), 10))
	b.WriteByte('\n')
}

// --- Gauge ---

// Gauge is a settable atomic float value.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(&Gauge{name: name, help: help}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges move both ways).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeSamples(b *strings.Builder) {
	b.WriteString(g.name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// --- GaugeFunc ---

// gaugeFunc samples a callback at exposition time — the natural shape
// for values another structure already owns (queue length, draining
// flag). The callback must be safe to call from any goroutine.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a callback-backed gauge. Re-registering an
// existing name keeps the first callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFunc) metricName() string { return g.name }
func (g *gaugeFunc) metricHelp() string { return g.help }
func (g *gaugeFunc) metricType() string { return "gauge" }
func (g *gaugeFunc) writeSamples(b *strings.Builder) {
	b.WriteString(g.name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.fn()))
	b.WriteByte('\n')
}

// --- Histogram ---

// DefBuckets are general-purpose latency bounds in seconds, spanning
// sub-millisecond cell runs to multi-minute grid jobs.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket concurrent histogram. Observations below
// the first bound land in the first bucket (cumulative buckets make
// this exact); observations above the last bound are carried only by
// the implicit +Inf bucket and the sum/count pair.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	count      atomic.Int64
}

// Histogram returns the histogram registered under name, creating it
// with the given upper bounds on first use. bounds must be strictly
// increasing; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return r.register(h).(*Histogram)
}

// Observe records one value. NaN observations are dropped — they cannot
// be bucketed and would poison the sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v; linear would also do for
	// ~17 buckets but this keeps large custom bucket sets cheap.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough view of a histogram for
// tests and programmatic scraping: per-bucket (non-cumulative) counts,
// the +Inf overflow count last, plus sum and total count. Concurrent
// observers may make Count briefly disagree with the bucket total by
// in-flight observations; it never goes backwards.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot returns the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) writeSamples(b *strings.Builder) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(h.name)
		b.WriteString(`_bucket{le="`)
		b.WriteString(formatFloat(bound))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(h.name)
	b.WriteString(`_bucket{le="+Inf"} `)
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
	b.WriteString(h.name)
	b.WriteString("_sum ")
	b.WriteString(formatFloat(math.Float64frombits(h.sumBits.Load())))
	b.WriteByte('\n')
	b.WriteString(h.name)
	b.WriteString("_count ")
	b.WriteString(strconv.FormatInt(h.count.Load(), 10))
	b.WriteByte('\n')
}
