// Batched structure-of-arrays execution kernels: the warm Monte-Carlo
// path flattened. A batch is K repetitions of one cell; the kernel runs
// them rep-major through a loop that mirrors the scalar
// Engine/RunInterval machinery expression for expression — same float
// operations, same order — but with every layer of indirection removed:
// fault arrivals drawn live, inline (below), with the pending one held
// in a register, per-repetition generator states derived
// in one structure-of-arrays pass (rng.StateBatch) instead of four
// dependent finaliser rounds per repetition, energy metering inlined to
// the two multiplies Meter.Segment performs, per-speed wall costs
// resolved once per batch, full-interval sub-division and energy
// increments hoisted out of the interval loop (identical inputs ⇒
// identical doubles, so the hoist is bit-free), and the shared
// fault-free prefix of the batch walked once and replayed by snapshot
// jump.
//
// The prefix-jump is the batch-shape win: until its first fault arrival
// a repetition is deterministic — no randomness, no replan, no speed
// switch — so every repetition of a cell follows one shared trajectory
// out of the gate. The kernel walks that trajectory once per batch with
// the live loop's exact operation sequence, snapshotting (t, energy,
// rc, x) at each interval top; a repetition binary-searches the
// interval its first arrival lands in and resumes there, and a
// repetition whose first arrival falls after execution ends takes the
// shared terminal state in O(1) (at the paper's low-λ cells that is
// most of the batch). The eager-DVS ablation replans every interval, so
// its fault-free trajectory carries evolving plan state the snapshots
// do not capture — those cells run the live loop from the start, still
// far cheaper than the scalar engine. The static interval rules of the
// Poisson and k-f-t baselines never replan, so their image-free batches
// take a narrower loop (runStatic): the same prefix jump over one
// speed, one interval length and one span per interval.
//
// Post-fault replans, by contrast, start from continuous (rc, rd) states:
// a fault's surviving work is quantised to span boundaries, but t (and
// so rd) accumulates a path-dependent mix of span, checkpoint and
// rollback durations, and the reachable set grows combinatorially with
// fault depth, so an exact-input plan cache hits too rarely to pay for
// its probes. The kernel plans directly through the RunContext's
// planner (Planner.planIdx), the same call the scalar engine makes:
// the per-(f, λ) constants are pooled, and the hoisted initial plan is
// computed once per batch.
//
// Arrivals are live draws: each repetition draws its first arrival when
// its stream is loaded and each next one only when the previous is
// consumed, exactly as the engine's Poisson process does. These are the
// doubles the bulk queue fault.Arrivals materialises, in the same
// order, without its over-draw. Cells that keep checkpoint images — a
// tiered store, the imperfect fault-tolerance model — run every
// repetition from t = 0 through the engine's own ledger (sim.FTLedger,
// see kernelStore), whose coverage, stable-storage and tier
// write-corruption draws interleave with the arrivals on one stream as
// they do in the engine.
// Batches under the imperfect model can end in silent corruption, which
// they report through the context's Wrong column; they run only when
// the caller sized it (growOutputs).
//
// The scalar path stays as the reference implementation; the
// batch/scalar equivalence property and fuzz tests pin byte-identical
// stats.Shard payloads between the two.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// batchState is the per-BatchContext scratch of the kernels: the
// per-operating-point cost table and the fault-free prefix trajectory.
// Planning state lives in the RunContext's planner.
type batchState struct {
	costs []speedCosts

	// Fault-free prefix trajectory scratch (see the kernels): snapshots
	// of (t, energy, rc, x) at the top of each interval of the shared
	// no-fault trajectory, reused across batches.
	pxT, pxE, pxRC, pxX []float64

	store kernelStore
}

// kernelStore is the kernels' path for every repetition that keeps
// checkpoint images — a tiered store, the imperfect fault-tolerance
// model, or both: the ledger the scalar engine keeps (sim.FTLedger)
// plus the checkpoint, rollback and tier charges at the current speed.
// The kernels take the decision once per batch — a nil *kernelStore is
// a batch that keeps no images — and the methods take and return a
// repetition's (energy, t, x) by value, so the kernels keep them in
// registers and charge in the engine's order.
type kernelStore struct {
	led sim.FTLedger
	p   sim.Params
	cfg *store.Config

	// Arrivals: each next one is drawn from src at rate lam only when
	// the previous one is consumed — the engine's PoissonProcess.Next —
	// because the ledger's coverage and corruption draws interleave with
	// them on the same stream.
	src *rng.Source
	lam float64

	// Charges at the current operating point at (frequency f), as wall
	// time and energy: the engine's Spend(d) for each checkpoint kind,
	// the rollback and each tier's write and read, computed once per
	// speed with the same float expressions.
	at                   *speedCosts
	f                    float64
	op, eOp              [3]float64
	rb, eRB              float64
	wWall, wE, rWall, rE [store.MaxTiers]float64
	// costly marks the tiers with a write cost: a write anywhere else
	// charges +0, which leaves energy and time bit for bit where they
	// are, so charge skips it.
	costly store.TierMask
}

// storeFor returns the batch's image-keeping path, or nil for a batch
// that keeps no images. arrival is the fault-arrival rate.
func (st *batchState) storeFor(p sim.Params, b *sim.BatchContext, arrival float64) *kernelStore {
	cfg := p.CheckpointStore()
	if cfg == nil {
		return nil
	}
	ks := &st.store
	ks.p, ks.cfg = p, cfg
	ks.src, ks.lam = b.Source(), arrival
	ks.at, ks.costly = nil, 0
	for i, tier := range cfg.Tiers {
		if tier.WriteCycles > 0 {
			ks.costly |= 1 << i
		}
	}
	return ks
}

// begin starts a repetition whose stream is loaded: it empties the
// ledger and draws the first pending arrival, as Engine.Reset does.
// Only a strictly positive rate draws (Engine.Reset's process switch).
func (ks *kernelStore) begin() float64 {
	ks.led.Reset(&ks.p, ks.src)
	return firstArrival(ks.src, ks.lam)
}

// firstArrival draws a repetition's first fault arrival at rate lam
// from its loaded stream, as Engine.Reset does: only a strictly
// positive rate gets a fault process, and anything else never fires
// (+Inf) and draws nothing. Each later arrival is the pending one plus
// src.Exp(lam), drawn only when the pending one is consumed — the
// engine's PoissonProcess.Next, and the same doubles in the same order
// as the pre-drawn fault.Arrivals queue.
func firstArrival(src *rng.Source, lam float64) float64 {
	if !(lam > 0) {
		return math.Inf(1)
	}
	return src.Exp(lam)
}

// consume takes every arrival before end, next being the pending one,
// and returns the new pending arrival and the count taken.
func (ks *kernelStore) consume(next, end float64) (float64, int) {
	n := 0
	for next < end {
		n++
		next += ks.src.Exp(ks.lam)
	}
	return next, n
}

// atSpeed refreshes the charges for operating point sc, unless they
// are already sc's: every repetition of a batch starts at the same
// point. A zero-cost tier charges +0, which leaves energy and time bit
// for bit where the engine, skipping the Spend, leaves them.
func (ks *kernelStore) atSpeed(sc *speedCosts, repl float64) {
	if sc == ks.at {
		return
	}
	ks.at = sc
	f, epc := sc.pt.Freq, sc.epc
	ks.f = f
	for k := range ks.op {
		d := ks.p.Costs.AtSpeed(checkpoint.Kind(k), f)
		ks.op[k], ks.eOp[k] = d, (f*d*repl)*epc
	}
	ks.rb = ks.p.Costs.Rollback / f
	ks.eRB = (f * ks.rb * repl) * epc
	for i := range ks.cfg.Tiers {
		tier := &ks.cfg.Tiers[i]
		d := tier.WriteCycles / f
		ks.wWall[i], ks.wE[i] = d, (f*d*repl)*epc
		d = tier.ReadCycles / f
		ks.rWall[i], ks.rE[i] = d, (f*d*repl)*epc
	}
}

// charge charges the tier writes of a push, in write order (ascending
// tier), skipping the free ones.
func (ks *kernelStore) charge(energy, t float64, writes store.TierMask) (float64, float64) {
	w := writes & ks.costly
	if w == 1 {
		// The fresh image alone, the common push.
		return energy + ks.wE[0], t + ks.wWall[0]
	}
	for ; w != 0; w &= w - 1 {
		i := bits.TrailingZeros8(uint8(w))
		energy += ks.wE[i]
		t += ks.wWall[i]
	}
	return energy, t
}

// walk runs the ledger's restore walk and charges its attempts in walk
// order — a corrupted image a rollback and then its tier read, the
// restored one its tier read — as the engine's restoreWalk does. It
// returns the restored image's index, or -1.
func (ks *kernelStore) walk(energy, t float64, budget int) (float64, float64, int) {
	attempts, chosen := ks.led.Walk(budget)
	imgs := ks.led.Images()
	for _, i := range attempts {
		if i != chosen {
			energy += ks.eRB
			t += ks.rb
		}
		ti := imgs[i].Tier
		energy += ks.rE[ti]
		t += ks.rWall[ti]
	}
	return energy, t, chosen
}

// recover is the engine's recoverStoreIdeal: the restore walk, the
// ledger's case choice, then the rollback charge. It returns the kept
// work relative to doneWork.
func (ks *kernelStore) recover(energy, t, doneWork, idealKept float64) (float64, float64, float64) {
	energy, t, chosen := ks.walk(energy, t, math.MaxInt)
	kept, _, _ := ks.led.SettleIdeal(chosen, doneWork, idealKept)
	return energy + ks.eRB, t + ks.rb, kept
}

// interval runs one interval of wall length cur split into m spans of
// length span (energy eSp each) with sub-checkpoints of flavour sub,
// starting at task progress doneWork with the pending arrival next:
// the engine's runIntervalStore — the ideal model over a tiered store —
// operation for operation (imperfect is the imperfect model's). It
// returns the advanced (energy, t, x, next), the kept work relative to
// doneWork (negative when a recovery crosses the interval start), the
// faults consumed and whether an error was detected.
func (ks *kernelStore) interval(energy, t, x, next, doneWork, cur, span, eSp float64, m int, sub checkpoint.Kind) (float64, float64, float64, float64, float64, int, bool) {
	f := ks.f
	faults, n := 0, 0
	switch {
	case m == 1:
		hit := false
		end := x + span
		if next < end {
			next, n = ks.consume(next, end)
			faults += n
			hit = true
		}
		energy += eSp
		t += span
		x = end
		energy += ks.eOp[checkpoint.CSCP]
		t += ks.op[checkpoint.CSCP]
		energy, t = ks.charge(energy, t, ks.led.Store(doneWork+cur*f, hit))
		if !hit {
			return energy, t, x, next, cur * f, faults, false
		}
		energy, t, kept := ks.recover(energy, t, doneWork, 0)
		return energy, t, x, next, kept, faults, true
	case sub == checkpoint.SCP:
		// Detection deferred to the closing CSCP; every store after the
		// earliest fault holds diverged state.
		firstOffset := -1.0
		for j := 0; j < m; j++ {
			end := x + span
			if next < end {
				if firstOffset < 0 {
					firstOffset = float64(j)*span + (next - x)
				}
				next, n = ks.consume(next, end)
				faults += n
			}
			energy += eSp
			t += span
			x = end
			if j < m-1 {
				energy += ks.eOp[checkpoint.SCP]
				t += ks.op[checkpoint.SCP]
				energy, t = ks.charge(energy, t, ks.led.Store(doneWork+float64(j+1)*span*f, firstOffset >= 0))
			}
		}
		energy += ks.eOp[checkpoint.CSCP]
		t += ks.op[checkpoint.CSCP]
		energy, t = ks.charge(energy, t, ks.led.Store(doneWork+cur*f, firstOffset >= 0))
		if firstOffset < 0 {
			return energy, t, x, next, cur * f, faults, false
		}
		energy, t, kept := ks.recover(energy, t, doneWork, math.Floor(firstOffset/span)*span*f)
		return energy, t, x, next, kept, faults, true
	default:
		// CCP flavour: detection at the next comparison aborts the
		// interval; CCPs store nothing, the closing CSCP does.
		for j := 0; j < m; j++ {
			hit := false
			end := x + span
			if next < end {
				next, n = ks.consume(next, end)
				faults += n
				hit = true
			}
			energy += eSp
			t += span
			x = end
			if j < m-1 {
				energy += ks.eOp[checkpoint.CCP]
				t += ks.op[checkpoint.CCP]
			} else {
				energy += ks.eOp[checkpoint.CSCP]
				t += ks.op[checkpoint.CSCP]
				energy, t = ks.charge(energy, t, ks.led.Store(doneWork+cur*f, hit))
			}
			if hit {
				energy, t, kept := ks.recover(energy, t, doneWork, 0)
				return energy, t, x, next, kept, faults, true
			}
		}
		return energy, t, x, next, cur * f, faults, false
	}
}

// imperfect is interval under the imperfect model — the engine's
// runIntervalImperfect over live arrivals. Both flavours unify: an SCP
// boundary stores, a CCP boundary compares, the closing CSCP does both.
// A fault in a span starts divergence at its offset; with vulnerable
// operations a checkpoint's duration passes through the fault clock,
// and a fault there starts divergence at the image it writes.
func (ks *kernelStore) imperfect(energy, t, x, next, doneWork, cur, span, eSp float64, m int, sub checkpoint.Kind) (float64, float64, float64, float64, float64, int, bool) {
	f := ks.f
	vulnerable := ks.led.Vulnerable()
	faults := 0
	for j := 0; j < m; j++ {
		end := x + span
		if next < end {
			ks.led.Strike(doneWork + (float64(j)*span+(next-x))*f)
			for next < end {
				faults++
				next += ks.src.Exp(ks.lam)
			}
		}
		energy += eSp
		t += span
		x = end
		k := sub
		if j == m-1 {
			k = checkpoint.CSCP
		}
		d := ks.op[k]
		struck := false
		if vulnerable && d > 0 {
			end = x + d
			for next < end {
				struck = true
				faults++
				next += ks.src.Exp(ks.lam)
			}
			x = end
		}
		energy += ks.eOp[k]
		t += d
		work := doneWork + float64(j+1)*span*f
		if struck {
			ks.led.Strike(work)
		}
		if k != checkpoint.CCP {
			energy, t = ks.charge(energy, t, ks.led.Store(work, struck))
		}
		if k == checkpoint.SCP {
			continue
		}
		if detected, _ := ks.led.Compare(); detected {
			var chosen int
			energy, t, chosen = ks.walk(energy, t, ks.led.CascadeBudget())
			target, _ := ks.led.Resume(chosen)
			return energy + ks.eRB, t + ks.rb, x, next, target - doneWork, faults, true
		}
	}
	return energy, t, x, next, cur * f, faults, false
}

// speedCosts caches the wall-clock overhead durations and energy per
// cycle of one operating point — the values Engine.refreshSpeedCosts
// derives on every speed switch, computed once per batch here. The
// expressions match AtSpeed/EnergyPerCycle exactly.
type speedCosts struct {
	pt       cpu.OperatingPoint
	epc      float64
	wall     [3]float64
	rollback float64
}

// batchScratch returns b's kernel scratch, allocating it on first use.
func batchScratch(b *sim.BatchContext) *batchState {
	st, ok := b.Scratch().(*batchState)
	if !ok {
		st = &batchState{}
		b.SetScratch(st)
	}
	return st
}

// plan is the batch-side plan: pl's decision resolved to the batch's
// speedCosts entry (nil iff bad), so callers never re-resolve the
// operating point. st.costs is built from model.Points() in order, so
// the planned point index indexes it.
func (st *batchState) plan(pl *Planner, rc, rd, lam float64, rf int) (sc *speedCosts, itv, subLen float64, bad bool) {
	idx, itv, subLen := pl.planIdx(rc, rd, lam, rf)
	if idx == badConfigIdx {
		return nil, itv, subLen, true
	}
	return &st.costs[idx], itv, subLen, false
}

// buildCosts fills the per-point cost table from the model and cost
// parameters, reusing the backing array.
func buildSpeedCosts(dst []speedCosts, model *cpu.Model, costs checkpoint.Costs) []speedCosts {
	dst = dst[:0]
	for _, pt := range model.Points() {
		f := pt.Freq
		dst = append(dst, speedCosts{
			pt:  pt,
			epc: pt.EnergyPerCycle(),
			wall: [3]float64{
				checkpoint.SCP:  costs.AtSpeed(checkpoint.SCP, f),
				checkpoint.CCP:  costs.AtSpeed(checkpoint.CCP, f),
				checkpoint.CSCP: costs.AtSpeed(checkpoint.CSCP, f),
			},
			rollback: costs.Rollback / f,
		})
	}
	return dst
}

// prefixJump returns the interval a repetition's first arrival next
// lands in: the largest index j of the prefix snapshots' x with
// x[j] <= next (span consumption is strict next < end, so a boundary
// arrival belongs to the next interval).
func prefixJump(x []float64, next float64) int {
	lo, hi := 0, len(x)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if x[mid] <= next {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// batchable reports whether the parameters are inside the kernel
// envelope: every configuration whose fault arrivals are the plain
// Poisson process. Stores and the imperfect fault-tolerance model run
// through the engine's own ledger (kernelStore) in live-draw mode.
// Tracing wants per-event timelines and custom fault processes draw
// through their own code paths — those two take the scalar reference
// path.
func batchable(p sim.Params) bool {
	return p.Trace == nil && p.FaultProcess == nil
}

// growOutputs sizes b's outputs for n repetitions. A batch under the
// imperfect model can end in silent corruption, which only the Wrong
// column carries: such a batch runs only when the caller sized that
// column, and is otherwise refused with b untouched. A sized column is
// cleared, and the imperfect batches fill it per repetition.
func growOutputs(b *sim.BatchContext, p sim.Params, n int) bool {
	if p.ImperfectFT() && len(b.Wrong) < n {
		return false
	}
	b.Grow(n)
	if len(b.Wrong) >= n {
		clear(b.Wrong[:n])
	}
	return true
}

var _ sim.BatchScheme = (*Adaptive)(nil)

// RunBatch implements sim.BatchScheme: the adaptive kernel — planned
// intervals, optional sub-checkpoints, optional DVS, online λ
// estimation, the eager-DVS ablation and the baselines' static interval
// rules — planned by rctx's planner.
func (s *Adaptive) RunBatch(rctx *sim.RunContext, b *sim.BatchContext, p sim.Params, seeds []uint64) bool {
	return s.RunBatchArrival(rctx, b, p, seeds, p.Lambda)
}

// RunBatchArrival is RunBatch with the fault-arrival rate decoupled
// from the planning rate p.Lambda — the wrong-belief harness shape of
// the λ-knowledge ablation, whose scalar form runs a plain Poisson
// process at the grid's true rate while the scheme plans with a scaled
// belief. The arrival times are bit-identical to that process's (the
// kernels draw the same exponentials in the same order), so the
// experiment wrapper batches those cells by stripping its FaultProcess
// and passing the true rate here. A nil rctx (no planner to plan
// through) refuses the batch, as sim.RunBatch does.
func (s *Adaptive) RunBatchArrival(rctx *sim.RunContext, b *sim.BatchContext, p sim.Params, seeds []uint64, arrival float64) bool {
	n := len(seeds)
	if rctx == nil || !batchable(p) || !growOutputs(b, p, n) {
		return false
	}
	pl := s.plannerFor(rctx, p)
	st := batchScratch(b)
	model := p.CPUModel()
	st.costs = buildSpeedCosts(st.costs, model, p.Costs)

	D := p.Task.Deadline
	N := p.Task.Cycles
	k0 := p.Task.FaultBudget
	repl := float64(p.ReplicaCount())
	budget := p.MaxIntervalBudget()
	useSub := s.UseSub
	subCCP := s.Sub == checkpoint.CCP
	src := b.Source()
	b.States.Reseed(seeds)

	// Planning rate: the given λ, or the online posterior mean when
	// estimation is enabled — λ̂ = (1+detections)/(pseudo+exposure),
	// which at zero detections and zero exposure is exactly 1/pseudo
	// (x + 0.0 is the identity on positive doubles). The eager-DVS
	// ablation replans before every interval; both were scalar-only
	// before the envelope extension.
	estimate := s.EstimateLambdaPrior > 0
	eager := s.DVS && s.EagerSpeedReeval
	var pseudo float64
	lam0 := p.Lambda
	if estimate {
		pseudo = math.Min(1/s.EstimateLambdaPrior, D)
		lam0 = 1 / pseudo
	}

	// The initial plan (rc = N, rd = D, full fault budget) is the same
	// for every repetition of the cell — hoist it out of the rep loop.
	sc0, itv0, sub0, bad0 := st.plan(pl, N, D, lam0, k0)
	if bad0 {
		for i := 0; i < n; i++ {
			b.Completed[i] = false
			b.Energy[i], b.Time[i], b.Faults[i], b.Switches[i] = 0, 0, 0, 0
		}
		return true
	}
	if ks := st.storeFor(p, b, arrival); ks != nil {
		s.runKeepingImages(b, st, ks, pl, p, sc0, itv0, sub0, lam0, pseudo)
		return true
	}
	if s.static() {
		runStatic(b, st, p, sc0, itv0, arrival)
		return true
	}

	// Shared fault-free prefix: until its first fault arrival, every
	// repetition follows the same deterministic trajectory under the
	// initial plan (no replans, no speed switches, no randomness —
	// online estimation only moves λ̂ at detections, so it shares too).
	// Walk it once with the exact per-interval operation sequence the
	// live loop performs, snapshotting (t, energy, rc, x) at each
	// interval top; a repetition then jumps straight to the interval
	// its first arrival lands in. The snapshots come from the same
	// float operations in the same order, so the jump is bit-exact.
	// Eager-DVS replans every interval, so its prefix would need the
	// whole evolving plan state snapshotted — those cells skip the
	// prefix and run every repetition from the start.
	e0pc := sc0.pt.EnergyPerCycle()
	f0 := sc0.pt.Freq
	e0SCP := (f0 * sc0.wall[checkpoint.SCP] * repl) * e0pc
	e0CCP := (f0 * sc0.wall[checkpoint.CCP] * repl) * e0pc
	e0CSCP := (f0 * sc0.wall[checkpoint.CSCP] * repl) * e0pc
	e0RB := (f0 * sc0.rollback * repl) * e0pc
	// Full-interval invariants under the initial plan: a non-tail
	// interval (cur == itv) always splits into the same m spans of the
	// same length with the same energy increments — identical inputs,
	// identical doubles — so the Ceil/divide/multiply chain runs once
	// per plan instead of once per interval.
	m0, span0 := subdivide(itv0, sub0, useSub)
	eSp0 := (f0 * span0 * repl) * e0pc
	eItv0 := (f0 * itv0 * repl) * e0pc

	usePrefix := !eager
	pxT, pxE, pxRC, pxX := st.pxT[:0], st.pxE[:0], st.pxRC[:0], st.pxX[:0]
	// Terminal state of the never-faulting trajectory. Invalid only when
	// the walk stops at the live loop's non-positive-interval guard; the
	// affected repetitions then resume from the last snapshot so the
	// guard fires (or not) exactly where the scalar path would panic.
	termValid, termCompleted := false, false
	var termT, termE, xTotal float64
	if usePrefix {
		var t, x, energy float64
		rc := N
		broke := false
		for it := 0; it < budget; it++ {
			pxT = append(pxT, t)
			pxE = append(pxE, energy)
			pxRC = append(pxRC, rc)
			pxX = append(pxX, x)
			rd := D - t
			rcf := rc / f0
			if rcf > rd {
				termValid, termT, termE = true, t, energy
				broke = true
				break // infeasible, completed stays false
			}
			cur := minPos(itv0, rcf)
			if cur <= 0 {
				broke = true
				break // guard truncation: table ends, no terminal
			}
			var m int
			var span, eSp, eItv float64
			if cur == itv0 {
				m, span, eSp, eItv = m0, span0, eSp0, eItv0
			} else {
				m, span = subdivide(cur, sub0, useSub)
				eSp = (f0 * span * repl) * e0pc
				eItv = (f0 * cur * repl) * e0pc
			}
			if m == 1 {
				energy += eItv
				t += cur
				x += cur
				energy += e0CSCP
				t += sc0.wall[checkpoint.CSCP]
			} else if !subCCP {
				for j := 0; j < m; j++ {
					energy += eSp
					t += span
					x += span
					if j < m-1 {
						energy += e0SCP
						t += sc0.wall[checkpoint.SCP]
					}
				}
				energy += e0CSCP
				t += sc0.wall[checkpoint.CSCP]
			} else {
				for j := 0; j < m; j++ {
					energy += eSp
					t += span
					x += span
					if j == m-1 {
						energy += e0CSCP
						t += sc0.wall[checkpoint.CSCP]
					} else {
						energy += e0CCP
						t += sc0.wall[checkpoint.CCP]
					}
				}
			}
			rc -= cur * f0
			if rc <= sim.EpsWork {
				termValid, termCompleted, termT, termE = true, t <= D, t, energy
				broke = true
				break
			}
		}
		if !broke {
			// Interval budget exhausted without completing.
			termValid, termT, termE = true, t, energy
		}
		xTotal = x
	}
	st.pxT, st.pxE, st.pxRC, st.pxX = pxT, pxE, pxRC, pxX

	for i := 0; i < n; i++ {
		b.States.Load(src, i)
		next := firstArrival(src, arrival)
		var t, energy, x float64
		rc := N
		it0 := 0
		if usePrefix {
			if termValid && next >= xTotal {
				// First fault (if any) arrives after execution ends: the
				// repetition is the shared trajectory, verbatim. Arrivals
				// past the end are never consumed by the scalar loop either.
				b.Completed[i] = termCompleted
				b.Energy[i] = termE
				b.Time[i] = termT
				b.Faults[i], b.Switches[i] = 0, 0
				continue
			}
			// Jump to the interval containing the first arrival. A
			// guard-truncated table routes past-the-end repetitions to the
			// last snapshot, where the live loop stops at the same state
			// the scalar path would.
			it0 = prefixJump(pxX, next)
			t, energy, rc, x = pxT[it0], pxE[it0], pxRC[it0], pxX[it0]
		}
		var faults, switches, det int
		rf := k0
		sc := sc0
		itv, subLen := itv0, sub0
		// Lazy meter-state emulation: a switch is counted when a
		// segment is charged at a different point than the last one
		// (never on the first segment) — Meter.segmentSlow's rule. The
		// point is constant within an interval, so the check runs once
		// per interval, and it compares speedCosts pointers: plan always
		// resolves a point to its first matching st.costs slot, so
		// within a batch pointer identity coincides with point equality.
		// A jumped-over prefix interval has already charged segments at
		// the initial point (lastSc nil means no segment charged yet).
		var lastSc *speedCosts
		epc := 0.0
		// Per-charge energy increments at the current operating point —
		// products of values constant between speed switches, refreshed
		// alongside epc. Each equals the inline expression it replaces
		// bit-for-bit (same factors, same association order). The mF
		// family is the full-interval invariants at the live plan,
		// refreshed when the plan or the point changes (reconst).
		var eSCP, eCCP, eCSCP, eRB float64
		mF := m0
		spanF, eSpF, eItvF := span0, eSp0, eItv0
		reconst := false
		if it0 > 0 {
			lastSc = sc0
			epc = e0pc
			eSCP, eCCP, eCSCP, eRB = e0SCP, e0CCP, e0CSCP, e0RB
		}
		completed := false
		f := sc.pt.Freq

		for it := it0; it < budget; it++ {
			rd := D - t
			if eager {
				// The idealised governor: re-take the speed decision and
				// the interval plan before every interval, bidirectionally.
				// A BadConfig keeps the previous plan, like the scalar
				// loop ignoring replan's mid-run result.
				lamE := lam0
				if estimate {
					lamE = (1 + float64(det)) / (pseudo + x)
				}
				if pSC, pItv, pSub, pBad := st.plan(pl, rc, rd, lamE, rf); !pBad {
					if pSC != sc || pItv != itv || pSub != subLen {
						sc = pSC
						f = sc.pt.Freq
						itv, subLen = pItv, pSub
						reconst = true
					}
				}
			}
			rcf := rc / f
			if rcf > rd {
				break // infeasible
			}
			cur := minPos(itv, rcf)
			if cur <= 0 {
				panic(fmt.Sprintf("sim: non-positive interval %v", cur))
			}
			if sc != lastSc {
				if lastSc != nil {
					switches++
				}
				lastSc = sc
				epc = sc.pt.EnergyPerCycle()
				eSCP = (f * sc.wall[checkpoint.SCP] * repl) * epc
				eCCP = (f * sc.wall[checkpoint.CCP] * repl) * epc
				eCSCP = (f * sc.wall[checkpoint.CSCP] * repl) * epc
				eRB = (f * sc.rollback * repl) * epc
				reconst = true
			}
			if reconst {
				reconst = false
				mF, spanF = subdivide(itv, subLen, useSub)
				eSpF = (f * spanF * repl) * epc
				eItvF = (f * itv * repl) * epc
			}
			var m int
			var span, eSp, eItv float64
			if cur == itv {
				m, span, eSp, eItv = mF, spanF, eSpF, eItvF
			} else {
				m, span = subdivide(cur, subLen, useSub)
				eSp = (f * span * repl) * epc
				eItv = (f * cur * repl) * epc
			}

			kept := 0.0
			detected := false
			if m == 1 {
				// Single-span interval: one execution span, the closing
				// CSCP, rollback to the interval-leading state on a fault.
				// The pending arrival stays in a register across spans, so
				// the common fault-free span costs one compare, no load.
				hit := false
				end := x + cur
				if next < end {
					// One compare for the common fault-free span.
					hit = true
					for next < end {
						faults++
						next += src.Exp(arrival)
					}
				}
				energy += eItv
				t += cur
				x = end
				energy += eCSCP
				t += sc.wall[checkpoint.CSCP]
				if !hit {
					kept = cur * f
				} else {
					energy += eRB
					t += sc.rollback
					detected = true
				}
			} else if !subCCP {
				// SCP flavour: detection deferred to the closing CSCP,
				// rollback to the newest store before the earliest fault.
				firstOffset := -1.0
				for j := 0; j < m; j++ {
					end := x + span
					if next < end {
						if firstOffset < 0 {
							// next still holds the span's earliest arrival.
							firstOffset = float64(j)*span + (next - x)
						}
						for next < end {
							faults++
							next += src.Exp(arrival)
						}
					}
					energy += eSp
					t += span
					x = end
					if j < m-1 {
						energy += eSCP
						t += sc.wall[checkpoint.SCP]
					}
				}
				energy += eCSCP
				t += sc.wall[checkpoint.CSCP]
				if firstOffset < 0 {
					kept = cur * f
				} else {
					goodBoundary := math.Floor(firstOffset / span)
					kept = goodBoundary * span * f
					energy += eRB
					t += sc.rollback
					detected = true
				}
			} else {
				// CCP flavour: detection at the next comparison aborts the
				// interval — unexecuted spans consume no arrivals.
				for j := 0; j < m; j++ {
					hit := false
					end := x + span
					if next < end {
						hit = true
						for next < end {
							faults++
							next += src.Exp(arrival)
						}
					}
					energy += eSp
					t += span
					x = end
					eKind, wKind := eCCP, sc.wall[checkpoint.CCP]
					if j == m-1 {
						eKind, wKind = eCSCP, sc.wall[checkpoint.CSCP]
					}
					energy += eKind
					t += wKind
					if hit {
						energy += eRB
						t += sc.rollback
						detected = true
						break
					}
				}
				if !detected {
					kept = cur * f
				}
			}

			rc -= kept
			if detected {
				det++
				if rf > 0 {
					rf--
				}
				// Fig. 6 lines 15–17: re-take the speed decision and the
				// interval plan. A BadConfig here keeps the previous plan,
				// exactly as the scalar loop ignores replan's result
				// mid-run (fixed-speed badness is static and already
				// caught by the initial plan). The online estimator feeds
				// its posterior mean over the useful-execution exposure x.
				lamR := lam0
				if estimate {
					lamR = (1 + float64(det)) / (pseudo + x)
				}
				if pSC, pItv, pSub, pBad := st.plan(pl, rc, D-t, lamR, rf); !pBad {
					if pSC != sc || pItv != itv || pSub != subLen {
						sc = pSC
						f = sc.pt.Freq
						itv, subLen = pItv, pSub
						reconst = true
					}
				}
			}
			if rc <= sim.EpsWork {
				completed = t <= D
				break
			}
		}
		b.Completed[i] = completed
		b.Energy[i] = energy
		b.Time[i] = t
		b.Faults[i] = float64(faults)
		b.Switches[i] = float64(switches)
	}
	return true
}

// runKeepingImages is the adaptive kernel's loop for a batch whose
// cells keep checkpoint images (a tiered store, the imperfect model):
// every repetition from t = 0, each interval through the ledger
// (kernelStore.interval or, under the imperfect model,
// kernelStore.imperfect), planned, switched and replanned exactly as
// the image-free loop above — Adaptive.run over the engine, a static
// rule's single plan included. The initial plan (sc0, itv0, sub0 at
// rate lam0) is the batch's; pseudo is the online estimator's
// pseudo-exposure.
func (s *Adaptive) runKeepingImages(b *sim.BatchContext, st *batchState, ks *kernelStore, pl *Planner, p sim.Params, sc0 *speedCosts, itv0, sub0, lam0, pseudo float64) {
	D := p.Task.Deadline
	N := p.Task.Cycles
	repl := float64(p.ReplicaCount())
	budget := p.MaxIntervalBudget()
	estimate := s.EstimateLambdaPrior > 0
	eager := s.DVS && s.EagerSpeedReeval
	static := s.static()
	imperfect := p.ImperfectFT() // the ledger takes the model at each begin
	src := b.Source()
	// The full-interval split at the initial plan, as the image-free
	// loop hoists it: identical inputs, identical doubles.
	m0, span0 := subdivide(itv0, sub0, s.UseSub)
	eSp0 := (sc0.pt.Freq * span0 * repl) * sc0.epc
	for i := range b.Completed {
		b.States.Load(src, i)
		next := ks.begin()
		var t, energy, x float64
		rc := N
		var faults, switches, det int
		rf := p.Task.FaultBudget
		sc := sc0
		itv, subLen := itv0, sub0
		// The full-interval split at the live plan, recomputed when a
		// replan changes the plan (reconst) — the speed changes only
		// with it.
		mF, spanF, eSpF := m0, span0, eSp0
		reconst := false
		var lastSc *speedCosts
		completed := false
		f := sc.pt.Freq
		for it := 0; it < budget; it++ {
			rd := D - t
			if eager {
				lamE := lam0
				if estimate {
					lamE = (1 + float64(det)) / (pseudo + x)
				}
				if pSC, pItv, pSub, pBad := st.plan(pl, rc, rd, lamE, rf); !pBad {
					if pSC != sc || pItv != itv || pSub != subLen {
						sc, itv, subLen = pSC, pItv, pSub
						f = sc.pt.Freq
						reconst = true
					}
				}
			}
			rcf := rc / f
			if rcf > rd {
				break // infeasible
			}
			cur := minPos(itv, rcf)
			if cur <= 0 {
				panic(fmt.Sprintf("sim: non-positive interval %v", cur))
			}
			if sc != lastSc {
				if lastSc != nil {
					switches++
				}
				lastSc = sc
				ks.atSpeed(sc, repl)
			}
			if reconst {
				reconst = false
				mF, spanF = subdivide(itv, subLen, s.UseSub)
				eSpF = (f * spanF * repl) * sc.epc
			}
			m, span, eSp := mF, spanF, eSpF
			if cur != itv {
				m, span = subdivide(cur, subLen, s.UseSub)
				eSp = (f * span * repl) * sc.epc
			}
			var kept float64
			var nf int
			var detected bool
			if imperfect {
				energy, t, x, next, kept, nf, detected = ks.imperfect(energy, t, x, next, N-rc, cur, span, eSp, m, s.Sub)
			} else {
				energy, t, x, next, kept, nf, detected = ks.interval(energy, t, x, next, N-rc, cur, span, eSp, m, s.Sub)
			}
			faults += nf
			rc -= kept
			if detected {
				det++
				if rf > 0 {
					rf--
				}
				if !static {
					lamR := lam0
					if estimate {
						lamR = (1 + float64(det)) / (pseudo + x)
					}
					if pSC, pItv, pSub, pBad := st.plan(pl, rc, D-t, lamR, rf); !pBad {
						if pSC != sc || pItv != itv || pSub != subLen {
							sc, itv, subLen = pSC, pItv, pSub
							f = sc.pt.Freq
							reconst = true
						}
					}
				}
			}
			if rc <= sim.EpsWork {
				completed = t <= D
				break
			}
		}
		b.Completed[i] = completed
		b.Energy[i] = energy
		b.Time[i] = t
		b.Faults[i] = float64(faults)
		b.Switches[i] = float64(switches)
		if imperfect {
			b.Wrong[i] = ks.led.Wrong(completed)
		}
	}
}

// subdivide splits an interval of wall length cur into m spans of
// length cur/m, with m = ⌈cur/subLen⌉ under the engine's tolerance, or
// 1 without sub-checkpoints — Adaptive.run's and RunInterval's
// expressions.
func subdivide(cur, subLen float64, useSub bool) (int, float64) {
	m := 1
	if useSub && subLen > 0 {
		m = int(math.Ceil(cur/subLen - 1e-9))
		if m < 1 {
			m = 1
		}
	}
	return m, cur / float64(m)
}

// runStatic is the image-free loop of a static interval rule (the
// Poisson and k-f-t baselines): one operating point, the initial plan's
// interval itv throughout, m = 1 everywhere and no replan — the
// flattened equivalent of Adaptive.run over the engine's m == 1 fast
// path. With one speed and one interval length every repetition follows
// the same deterministic trajectory until its first fault arrival, so
// the shared prefix is walked once with the live loop's exact operation
// sequence, snapshotting (t, energy, rc, x) at each interval top; a
// repetition jumps to the interval its first arrival (drawn at rate
// arrival) lands in, and a repetition whose first arrival falls after
// the end of execution is the shared trajectory verbatim. A detection
// rolls back and re-executes at the same speed and interval, so no
// snapshot needs the plan state the adaptive loop carries.
func runStatic(b *sim.BatchContext, st *batchState, p sim.Params, sc *speedCosts, itv, arrival float64) {
	f := sc.pt.Freq
	epc := sc.epc
	wallCSCP := sc.wall[checkpoint.CSCP]
	repl := float64(p.ReplicaCount())
	// Per-charge energy increments are products of per-rep constants —
	// computed once here, bit-identical to evaluating them at each
	// charge site (same factors, same order).
	eItv := (f * itv * repl) * epc
	eCSCP := (f * wallCSCP * repl) * epc
	eRB := (f * sc.rollback * repl) * epc
	D := p.Task.Deadline
	N := p.Task.Cycles
	budget := p.MaxIntervalBudget()
	src := b.Source()

	pxT, pxE, pxRC, pxX := st.pxT[:0], st.pxE[:0], st.pxRC[:0], st.pxX[:0]
	termValid, termCompleted := false, false
	var termT, termE, xTotal float64
	{
		// The block scopes the walk's t, x, energy and rc: each
		// repetition below starts its own.
		var t, x, energy float64
		rc := N
		broke := false
		for k := 0; k < budget; k++ {
			pxT = append(pxT, t)
			pxE = append(pxE, energy)
			pxRC = append(pxRC, rc)
			pxX = append(pxX, x)
			rd := D - t
			rcf := rc / f
			if rcf > rd {
				termValid, termT, termE = true, t, energy
				broke = true
				break // infeasible, completed stays false
			}
			cur := minPos(itv, rcf)
			if cur <= 0 {
				broke = true
				break // guard truncation: table ends, no terminal
			}
			eCur := eItv
			if cur != itv {
				eCur = (f * cur * repl) * epc
			}
			energy += eCur
			t += cur
			x += cur
			energy += eCSCP
			t += wallCSCP
			rc -= cur * f
			if rc <= sim.EpsWork {
				termValid, termCompleted, termT, termE = true, t <= D, t, energy
				broke = true
				break
			}
		}
		if !broke {
			// Interval budget exhausted without completing.
			termValid, termT, termE = true, t, energy
		}
		xTotal = x
	}
	st.pxT, st.pxE, st.pxRC, st.pxX = pxT, pxE, pxRC, pxX

	for i := range b.Completed {
		b.States.Load(src, i)
		next := firstArrival(src, arrival)
		if termValid && next >= xTotal {
			b.Completed[i] = termCompleted
			b.Energy[i] = termE
			b.Time[i] = termT
			b.Faults[i], b.Switches[i] = 0, 0
			continue
		}
		it0 := prefixJump(pxX, next)
		t, energy, rc, x := pxT[it0], pxE[it0], pxRC[it0], pxX[it0]
		faults := 0
		completed := false
		for k := it0; k < budget; k++ {
			rd := D - t
			rcf := rc / f
			if rcf > rd {
				break // infeasible
			}
			cur := minPos(itv, rcf)
			if cur <= 0 {
				panic(fmt.Sprintf("sim: non-positive interval %v", cur))
			}
			eCur := eItv
			if cur != itv {
				eCur = (f * cur * repl) * epc
			}
			// ExecSpan(cur): consume every arrival inside the span, with
			// the pending arrival held in a register so the common
			// fault-free span costs one compare.
			hit := false
			end := x + cur
			if next < end {
				hit = true
				for next < end {
					faults++
					next += src.Exp(arrival)
				}
			}
			energy += eCur
			t += cur
			x = end
			// Closing CSCP.
			energy += eCSCP
			t += wallCSCP
			if !hit {
				rc -= cur * f
			} else {
				// Detection at the CSCP: rollback, nothing kept.
				energy += eRB
				t += sc.rollback
			}
			if rc <= sim.EpsWork {
				completed = t <= D
				break
			}
		}
		b.Completed[i] = completed
		b.Energy[i] = energy
		b.Time[i] = t
		b.Faults[i] = float64(faults)
		b.Switches[i] = 0 // one speed throughout: the meter never counts a switch
	}
}
