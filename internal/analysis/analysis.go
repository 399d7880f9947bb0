// Package analysis implements the paper's analytic performance models:
// the renewal equations R1 (SCP scheme, eq. 1) and R2 (CCP scheme,
// eq. 2) for the expected execution time of one CSCP interval, the
// optimal sub-interval count procedures num_SCP / num_CCP (paper Fig. 2),
// and the DVS feasibility estimate t_est (paper §3).
//
// The printed equations are OCR-damaged; DESIGN.md §3 records the
// reconstruction used here together with the boundary conditions from the
// paper that pin it down: R → ∞ as the sub-interval length goes to 0⁺,
// and R = (T + ts + tcp)·e^{λT} when a single sub-interval is used
// (m = 1, tr = 0).
package analysis

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
)

// Params bundles the environment the analytic models need.
type Params struct {
	// Costs is the checkpoint cost model (ts, tcp, tr).
	Costs checkpoint.Costs
	// Lambda is the fault arrival rate per wall-clock unit.
	Lambda float64
}

// Validate rejects unusable parameters.
func (p Params) Validate() error {
	if err := p.Costs.Validate(); err != nil {
		return err
	}
	if p.Lambda < 0 || math.IsNaN(p.Lambda) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("analysis: invalid λ %v", p.Lambda)
	}
	return nil
}

// R1 returns the expected execution time of one CSCP interval of length t
// when it is subdivided into sub-intervals of length t1 with an SCP at
// each boundary (paper eq. 1).
//
// Model: the fault-free pass costs T + m·ts + tcp (m = T/t1 stores, of
// which the last is part of the closing CSCP, plus one comparison).
// Faults are detected only at the CSCP; each expected fault event
// (e^{λT} − 1 of them) rolls back to the most recent consistent SCP and
// re-executes on average (T + t1)/2 of work — with its stores — plus one
// comparison and the rollback cost.
//
// R1 → +∞ as t1 → 0⁺ and R1(T) = (T + ts + tcp)·e^{λT} for tr = 0,
// matching the boundary behaviour stated in the paper.
func R1(p Params, t, t1 float64) float64 {
	if t <= 0 {
		panic(fmt.Sprintf("analysis: R1 requires T>0, got %v", t))
	}
	if t1 <= 0 {
		return math.Inf(1)
	}
	if t1 > t {
		t1 = t
	}
	ts, tcp, tr := p.Costs.Store, p.Costs.Compare, p.Costs.Rollback
	m := t / t1
	faultFree := t + m*ts + tcp
	redo := (t+t1)/2*(1+ts/t1) + tcp + tr
	return faultFree + redo*math.Expm1(p.Lambda*t)
}

// R2 returns the expected execution time of one CSCP interval of length t
// when it is subdivided into sub-intervals of length t2 with a CCP at
// each boundary (paper eq. 2).
//
// Model: the fault-free pass costs T + (m−1)·tcp + (ts + tcp). A fault is
// detected at the next comparison (latency < t2) but rollback must return
// to the interval-leading CSCP, so each expected fault event restarts the
// interval after wasting E[i]·(t2 + tcp) + tr, where i is the
// sub-interval the first fault lands in, *conditioned on a fault
// occurring within the interval*:
//
//	E[i | fault] = 1/(1 − e^{−λt2}) − m·e^{−λT}/(1 − e^{−λT})
//
// (the truncated-geometric mean; for λT ≪ 1 it reduces to the uniform
// (m+1)/2, and at m = 1 to exactly 1).
//
// R2 → +∞ as t2 → 0⁺, and for m = 1 it reduces to the single-CSCP
// renewal form.
func R2(p Params, t, t2 float64) float64 {
	if t <= 0 {
		panic(fmt.Sprintf("analysis: R2 requires T>0, got %v", t))
	}
	if t2 <= 0 {
		return math.Inf(1)
	}
	if t2 > t {
		t2 = t
	}
	ts, tcp, tr := p.Costs.Store, p.Costs.Compare, p.Costs.Rollback
	m := t / t2
	faultFree := t + (m-1)*tcp + ts + tcp
	if p.Lambda == 0 {
		return faultFree
	}
	meanSub := 1/(-math.Expm1(-p.Lambda*t2)) - m*math.Exp(-p.Lambda*t)/(-math.Expm1(-p.Lambda*t))
	waste := meanSub*(t2+tcp) + tr
	return faultFree + waste*math.Expm1(p.Lambda*t)
}

// intervalExpectedTime dispatches to R1 or R2 by scheme kind. kind must
// be checkpoint.SCP or checkpoint.CCP (the flavour of the *additional*
// checkpoints placed between CSCPs).
func intervalExpectedTime(p Params, kind checkpoint.Kind, t, sub float64) float64 {
	switch kind {
	case checkpoint.SCP:
		return R1(p, t, sub)
	case checkpoint.CCP:
		return R2(p, t, sub)
	default:
		panic(fmt.Sprintf("analysis: no renewal model for %v sub-checkpoints", kind))
	}
}

// goldenMinimize finds an approximate minimiser of f over [lo, hi] by
// golden-section search. f must be unimodal on the bracket for an exact
// answer; for our renewal curves (convex in the sub-interval length) it
// is. tol is the absolute x tolerance.
func goldenMinimize(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// ContinuousMinimizer returns the continuous sub-interval length T̃ that
// minimises the renewal model on (0, t].
//
// For the SCP model the stationary point has a closed form: setting
// dR1/dT1 = 0 gives T̃1 = sqrt(T·ts·(1 + 2/(e^{λT} − 1))), which for
// small λT reduces to the classical sqrt(2·ts/λ). For the CCP model the
// small-λT2 expansion of eq. 2 gives the classical T̃2 = sqrt(2·tcp/λ);
// the integer refinement in NumSub absorbs the expansion error. λ = 0
// means faults never occur and subdividing can only cost: T̃ = t.
func ContinuousMinimizer(p Params, kind checkpoint.Kind, t float64) float64 {
	if t <= 0 {
		panic(fmt.Sprintf("analysis: ContinuousMinimizer requires T>0, got %v", t))
	}
	if p.Lambda == 0 {
		return t
	}
	switch kind {
	case checkpoint.SCP:
		growth := math.Expm1(p.Lambda * t)
		if growth <= 0 {
			return t
		}
		return math.Min(t, math.Sqrt(t*p.Costs.Store*(1+2/growth)))
	case checkpoint.CCP:
		return math.Min(t, math.Sqrt(2*p.Costs.Compare/p.Lambda))
	default:
		panic(fmt.Sprintf("analysis: no renewal model for %v sub-checkpoints", kind))
	}
}

// NumSub is the generalised num_SCP / num_CCP procedure of paper Fig. 2:
// given a CSCP interval of length t, it returns the integer number of
// sub-intervals m ≥ 1 that minimises the renewal model for the given
// sub-checkpoint kind.
//
// Following Fig. 2: first find the continuous minimiser T̃ of the renewal
// curve; if T̃ ≥ t a single sub-interval is optimal; otherwise start from
// the integers bracketing t/T̃ and walk downhill. The renewal curves are
// unimodal in m, so the local minimum found is global. The walk also
// repairs the expansion error of the CCP closed form.
//
// The sub-checkpoint kind must cost something: with a free kind the
// renewal curve falls monotonically in m, so there is no optimal count
// — more sub-checkpoints always look better — and a zero cost is a
// configuration error, reported by panic like a non-positive T. The
// planner plans a free kind with no sub-checkpoints at all (m = 1)
// instead of asking.
//
// maxSubCount bounds the sub-interval count search. Sane environments
// optimise to a handful of sub-intervals; the bound only bites in
// degenerate corners — a T/T̃ ratio so large that rounding it would
// overflow the int conversion.
const maxSubCount = 1 << 20

func NumSub(p Params, kind checkpoint.Kind, t float64) int {
	if !(t > 0) {
		panic(fmt.Sprintf("analysis: NumSub requires T>0, got %v", t))
	}
	if c := p.Costs.Of(kind); !(c > 0) {
		panic(fmt.Sprintf("analysis: NumSub requires a positive %v cost, got %v", kind, c))
	}
	f := func(m int) float64 { return intervalExpectedTime(p, kind, t, t/float64(m)) }
	tilde := ContinuousMinimizer(p, kind, t)
	m := 1
	if tilde < t {
		m = int(math.Max(1, math.Min(math.Round(t/tilde), maxSubCount)))
	}
	for m > 1 && f(m-1) <= f(m) {
		m--
	}
	for m < maxSubCount && f(m+1) < f(m) {
		m++
	}
	return m
}

// NumSubGolden is the literal Fig. 2 procedure: golden-section search for
// the continuous minimiser followed by the floor/ceil comparison. It is
// kept for the ablation bench comparing it against NumSub's closed-form
// fast path; both agree with the brute-force oracle in tests.
func NumSubGolden(p Params, kind checkpoint.Kind, t float64) int {
	if !(t > 0) {
		panic(fmt.Sprintf("analysis: NumSubGolden requires T>0, got %v", t))
	}
	f := func(sub float64) float64 { return intervalExpectedTime(p, kind, t, sub) }
	// Lower bracket: sub-intervals shorter than the sub-checkpoint cost
	// are never useful; avoid the singular region near zero.
	lo := math.Min(t/2, math.Max(p.Costs.Of(kind), 1e-9))
	if lo <= 0 {
		lo = 1e-9
	}
	tilde := goldenMinimize(f, lo, t, 1e-6*t+1e-12)
	if tilde >= t {
		return 1
	}
	m := math.Min(math.Floor(t/tilde), maxSubCount)
	if m < 1 {
		return 1
	}
	if f(t/m) <= f(t/(m+1)) {
		return int(m)
	}
	return int(m) + 1
}

// NumSCP is paper Fig. 2: the optimal number of SCP sub-intervals for a
// CSCP interval of length t.
func NumSCP(p Params, t float64) int { return NumSub(p, checkpoint.SCP, t) }

// NumCCP is the CCP analogue of Fig. 2 (paper §2.2).
func NumCCP(p Params, t float64) int { return NumSub(p, checkpoint.CCP, t) }

// BruteForceNumSub scans m = 1..maxM and returns the integer minimiser of
// the renewal model directly. It is the oracle the tests and the
// ablation bench compare NumSub against.
func BruteForceNumSub(p Params, kind checkpoint.Kind, t float64, maxM int) int {
	if maxM < 1 {
		maxM = 1
	}
	best, bestV := 1, math.Inf(1)
	for m := 1; m <= maxM; m++ {
		v := intervalExpectedTime(p, kind, t, t/float64(m))
		if v < bestV {
			best, bestV = m, v
		}
	}
	return best
}

// TEst is the DVS feasibility estimate of paper §3: the expected
// execution time of the remaining rc cycles at speed f in the presence of
// faults and checkpointing, when the checkpoint interval is set to
// sqrt(C/λ) with C = c/f:
//
//	t_est = (rc/f) · (1 + sqrt(λ·c/f)) / (1 − sqrt(λ·c/f))
//
// If the overhead term reaches 1 the estimate diverges and +Inf is
// returned (the speed cannot sustain the fault rate at all). λ = 0 gives
// the fault-free time rc/f.
func TEst(rc, f, c, lambda float64) float64 {
	if rc < 0 || f <= 0 || c < 0 || lambda < 0 {
		panic(fmt.Sprintf("analysis: TEst got rc=%v f=%v c=%v λ=%v", rc, f, c, lambda))
	}
	if rc == 0 {
		return 0
	}
	base := rc / f
	if lambda == 0 || c == 0 {
		return base
	}
	s := math.Sqrt(lambda * c / f)
	if s >= 1 {
		return math.Inf(1)
	}
	return base * (1 + s) / (1 - s)
}

// CurvePoint is one sample of a renewal curve.
type CurvePoint struct {
	M int     // number of sub-intervals
	R float64 // expected interval execution time
}

// Curve samples the renewal model at integer m = 1..maxM for a CSCP
// interval of length t. This regenerates the series behind Fig. 2's
// minimisation (the paper shows no data figure; the curve is the
// analytic object its procedures optimise).
func Curve(p Params, kind checkpoint.Kind, t float64, maxM int) []CurvePoint {
	if maxM < 1 {
		maxM = 1
	}
	out := make([]CurvePoint, 0, maxM)
	for m := 1; m <= maxM; m++ {
		out = append(out, CurvePoint{M: m, R: intervalExpectedTime(p, kind, t, t/float64(m))})
	}
	return out
}

// ExpectedTaskTime returns n·R(kind) — the expected execution time of a
// task split into n CSCP intervals of length t each (paper: RSCP(n) =
// n·R1(m), RCCP(n) = n·R2(m)), with m chosen optimally.
func ExpectedTaskTime(p Params, kind checkpoint.Kind, n int, t float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("analysis: need n>=1 intervals, got %d", n))
	}
	m := NumSub(p, kind, t)
	return float64(n) * intervalExpectedTime(p, kind, t, t/float64(m))
}
