// Package sweep produces parameter-sweep series — the figure-like
// artefacts of the evaluation. The paper itself prints only tables;
// these sweeps trace the same quantities (P and E per scheme) as
// continuous curves over λ, utilisation, or the store/compare cost
// ratio, which is how the crossovers the tables sample become visible.
package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
)

// Point is one sample of a sweep: the swept parameter value and the
// per-scheme summaries.
type Point struct {
	X       float64
	Results []stats.Summary
}

// Series is a completed sweep.
type Series struct {
	// Name labels the sweep; XLabel the swept parameter.
	Name, XLabel string
	// Schemes holds the column labels.
	Schemes []string
	Points  []Point
}

// Config fixes the non-swept parameters.
type Config struct {
	// U is the task utilisation at UFreq; Deadline is D; K the budget.
	U, UFreq, Deadline float64
	K                  int
	Costs              checkpoint.Costs
	Lambda             float64
	// Store, when non-nil, runs every point under the tiered checkpoint
	// store model (internal/store). The StoreCapacity sweep overrides it
	// per point.
	Store *store.Config
	// Reps per point and base seed.
	Reps int
	Seed uint64
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 2000
	}
	return c.Reps
}

func (c Config) params() (sim.Params, error) {
	tk, err := task.FromUtilization("sweep", c.U, c.UFreq, c.Deadline, c.K)
	if err != nil {
		return sim.Params{}, err
	}
	return sim.Params{Task: tk, Costs: c.Costs, Lambda: c.Lambda, Store: c.Store}, nil
}

func (c Config) cell(s sim.Scheme, p sim.Params, x float64) stats.Summary {
	return c.cellSeeded(s, p, c.Seed^math.Float64bits(x)^hashName(s.Name()))
}

func (c Config) cellSeeded(s sim.Scheme, p sim.Params, pointSeed uint64) stats.Summary {
	// A pooled context: a fresh one would allocate its 1 MiB plan cache
	// for every point and scheme. A panicking scheme skips the Put and
	// so drops the pair.
	sc := sim.GetContexts()
	rctx := &sc.Run
	var cell stats.Cell
	for i := 0; i < c.reps(); i++ {
		// Each rep's stream is the i-th member of the counter-based seed
		// family — the experiment runner's derivation — so any rep can be
		// reconstructed in isolation; the engine and plan caches are
		// reused across reps.
		r := sim.RunScheme(rctx, s, p, rctx.Reseed(rng.Stream(pointSeed, i)))
		cell.Observe(r.Completed, r.Energy, r.Time, float64(r.Faults), float64(r.Switches))
	}
	sim.PutContexts(sc)
	return cell.Summary()
}

func hashName(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(s) {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Lambda sweeps the fault rate over the given values.
func Lambda(cfg Config, schemes []sim.Scheme, lambdas []float64) (Series, error) {
	ser := newSeries("P/E vs fault rate", "lambda", schemes)
	for _, lam := range lambdas {
		c := cfg
		c.Lambda = lam
		p, err := c.params()
		if err != nil {
			return Series{}, err
		}
		ser.Points = append(ser.Points, point(c, schemes, p, lam))
	}
	return ser, nil
}

// Utilization sweeps U over the given values.
func Utilization(cfg Config, schemes []sim.Scheme, us []float64) (Series, error) {
	ser := newSeries("P/E vs utilisation", "U", schemes)
	for _, u := range us {
		c := cfg
		c.U = u
		p, err := c.params()
		if err != nil {
			return Series{}, err
		}
		ser.Points = append(ser.Points, point(c, schemes, p, u))
	}
	return ser, nil
}

// CostRatio sweeps the store/compare split at a fixed CSCP cost
// c = ts + tcp: x is the store share ts/(ts+tcp). This is the sweep
// behind the paper's central design rule — add SCPs where comparison
// dominates, CCPs where storage does.
func CostRatio(cfg Config, schemes []sim.Scheme, shares []float64) (Series, error) {
	total := cfg.Costs.CSCPCycles()
	ser := newSeries("P/E vs store share of checkpoint cost", "ts_share", schemes)
	for _, share := range shares {
		if share < 0 || share > 1 {
			return Series{}, fmt.Errorf("sweep: store share %v outside [0,1]", share)
		}
		c := cfg
		c.Costs = checkpoint.Costs{
			Store:    share * total,
			Compare:  (1 - share) * total,
			Rollback: cfg.Costs.Rollback,
		}
		p, err := c.params()
		if err != nil {
			return Series{}, err
		}
		ser.Points = append(ser.Points, point(c, schemes, p, share))
	}
	return ser, nil
}

// StoreCapacity sweeps the retained-checkpoint bound k of the default
// NVRAM+flash stack (store.DefaultConfig) — the capacity-vs-P/E
// frontier of the tiered-store model. k <= 0 runs the unlimited stack
// (plotted at X=0). Unlike the other sweeps, every point reuses the
// same rep streams (common random numbers: the point seed omits X), so
// the frontier reflects the capacity effect alone — shrinking k can
// only evict more rollback targets on an identical fault history, which
// is what makes the P curve monotone up to model effect rather than
// sampling noise.
func StoreCapacity(cfg Config, schemes []sim.Scheme, ks []int) (Series, error) {
	ser := newSeries("P/E vs checkpoint-set capacity", "k", schemes)
	for _, k := range ks {
		c := cfg
		c.Store = store.DefaultConfig(k)
		p, err := c.params()
		if err != nil {
			return Series{}, err
		}
		x := float64(k)
		if k <= 0 {
			x = 0
		}
		pt := Point{X: x, Results: make([]stats.Summary, len(schemes))}
		for i, s := range schemes {
			pt.Results[i] = c.cellSeeded(s, p, c.Seed^hashName(s.Name()))
		}
		ser.Points = append(ser.Points, pt)
	}
	return ser, nil
}

func newSeries(name, xlabel string, schemes []sim.Scheme) Series {
	labels := make([]string, len(schemes))
	for i, s := range schemes {
		labels[i] = s.Name()
	}
	return Series{Name: name, XLabel: xlabel, Schemes: labels}
}

func point(c Config, schemes []sim.Scheme, p sim.Params, x float64) Point {
	pt := Point{X: x, Results: make([]stats.Summary, len(schemes))}
	for i, s := range schemes {
		pt.Results[i] = c.cell(s, p, x)
	}
	return pt
}

// CSV renders the series: one row per sweep point, P and E columns per
// scheme.
func (s Series) CSV() string {
	var b strings.Builder
	b.WriteString(s.XLabel)
	for _, name := range s.Schemes {
		fmt.Fprintf(&b, ",%s_P,%s_E", name, name)
	}
	b.WriteString("\n")
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%g", pt.X)
		for _, r := range pt.Results {
			e := "NaN"
			if !math.IsNaN(r.E) {
				e = fmt.Sprintf("%.0f", r.E)
			}
			fmt.Fprintf(&b, ",%.4f,%s", r.P, e)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Crossover returns the first sweep X at which scheme a's P falls at or
// below scheme b's (by column label), or NaN if the curves never cross.
func (s Series) Crossover(a, b string) float64 {
	ia, ib := -1, -1
	for i, name := range s.Schemes {
		if name == a {
			ia = i
		}
		if name == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return math.NaN()
	}
	for _, pt := range s.Points {
		if pt.Results[ia].P <= pt.Results[ib].P {
			return pt.X
		}
	}
	return math.NaN()
}
