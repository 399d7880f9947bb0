package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary the benchmark crosses.
// Spans of one op share Op; background work (the journal writer) has
// an empty Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerPriority orders the layers for self-time attribution: at any
// instant of an op, the time belongs to the innermost layer active, and
// inner layers rank higher. bench is the op itself; its self time is
// the residual no layer span covers.
var layerPriority = map[string]int{
	"bench":      0,
	"http":       1,
	"experiment": 2,
	"serve":      3,
	"cluster":    4,
	"core":       5,
}

// tracer keeps spans, counters and observations in memory for the
// traced window; writeJSONL dumps the spans at exit.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
	counts map[string]float64
	obs    map[string][]float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.reset()
	return t
}

// reset drops everything recorded so far (the set-up's warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.counts = map[string]float64{}
	t.obs = map[string][]float64{}
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, delta float64) {
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

func (t *tracer) observations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.obs[name]...)
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution splits the ops' wall time between layers.
type attribution struct {
	selfNS   map[string]int64
	rootNS   int64
	ops      int
	spans    int
	layerSum float64 // share of op time inside some layer span
	residual float64 // share no layer span covers: 1 - layerSum
}

// attribute computes per-layer self time over every traced op: each
// instant inside an op's root span goes to the highest-priority layer
// with a span of that op active then. Children are clipped to their
// root, so the layer shares and the residual partition the ops' time.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	byOp := map[string][]span{}
	for _, s := range t.spans {
		if s.Op != "" {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	t.mu.Unlock()
	a := attribution{selfNS: map[string]int64{}}
	type edge struct {
		at    int64
		prio  int
		delta int
	}
	layerOf := make([]string, len(layerPriority))
	for l, p := range layerPriority {
		layerOf[p] = l
	}
	for _, spans := range byOp {
		var root *span
		for i := range spans {
			if spans[i].Layer == "bench" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		a.ops++
		a.spans += len(spans)
		a.rootNS += root.End - root.Start
		var edges []edge
		for _, s := range spans {
			lo, hi := max(s.Start, root.Start), min(s.End, root.End)
			if hi <= lo {
				continue
			}
			p := layerPriority[s.Layer]
			edges = append(edges, edge{lo, p, 1}, edge{hi, p, -1})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		var active [8]int
		for i := 0; i < len(edges); i++ {
			active[edges[i].prio] += edges[i].delta
			if i+1 == len(edges) || edges[i+1].at == edges[i].at {
				continue
			}
			for p := len(layerOf) - 1; p >= 0; p-- {
				if active[p] > 0 {
					a.selfNS[layerOf[p]] += edges[i+1].at - edges[i].at
					break
				}
			}
		}
	}
	if a.rootNS > 0 {
		a.residual = float64(a.selfNS["bench"]) / float64(a.rootNS)
		a.layerSum = 1 - a.residual
	}
	return a
}

func (a attribution) metrics() map[string]float64 {
	m := map[string]float64{
		"trace.layer_sum_ratio": a.layerSum,
		"trace.residual_ratio":  a.residual,
	}
	if a.ops > 0 {
		m["trace.spans_per_op"] = float64(a.spans) / float64(a.ops)
	}
	for l := range layerPriority {
		if l == "bench" || a.rootNS == 0 {
			continue
		}
		m[fmt.Sprintf("trace.self_share.%s", l)] = float64(a.selfNS[l]) / float64(a.rootNS)
	}
	return m
}
