package sim

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/store"
)

// This file implements the imperfect-fault-tolerance extension of the
// engine: what happens when the checkpointing machinery itself is
// fallible (Params.Imperfect, see internal/fault.Imperfection).
//
// Three departures from the paper's renewal model are simulated:
//
//  1. Detection coverage c < 1: a comparison (CCP or CSCP) flags present
//     replica divergence only with probability c. A miss leaves the
//     corruption latent; later comparisons get fresh chances, and a run
//     completing with divergence still undetected is recorded as silent
//     data corruption (Result.SilentCorruption).
//  2. Store corruption: every stored image (SCP or CSCP) may be
//     unusable at recovery time. The damage passes the cheap two-halves
//     consistency check and is discovered only when a recovery attempts
//     the restore, so recovery *cascades*: the restore walk (store.go)
//     goes back through older images, each failed attempt costing one
//     rollback charge, bounded by the cascade budget, with
//     restart-from-the-beginning as the last resort.
//  3. Checkpoint-time faults: with CheckpointVulnerable set, checkpoint
//     operations are exposed to the fault process (the paper shields
//     them). A fault striking mid-operation corrupts the replica state
//     and spoils the image being written.
//
// Unlike the ideal path — which computes rollback targets analytically —
// the imperfect path stores explicit images in the engine's checkpoint
// set, in absolute task-progress units, because a cascade can cross
// interval boundaries: RunInterval may then return negative kept work,
// meaning progress from *before* the interval was lost. Without a
// Params.Store the set runs the paper's store (one unlimited tier, no
// costs, no media corruption), so the walk sees exactly the paper's
// stable storage.
//
// The engine enters this path only when Params.Imperfect is non-nil and
// not ideal; otherwise the seed code path runs unchanged and no
// additional randomness is consumed (the golden-equivalence guarantee).
//
// The model's state machine is FTLedger: divergence tracking, the
// coverage comparison, the diverged/corrupted push, the budgeted
// restore walk, restart and silent corruption at finish. It touches
// neither energy nor time, so the engine below and the batch kernels'
// live-draw mode (package core) both drive it, each charging the costs
// its own way, and draw from the repetition's stream in the same order.

// FTLedger is one repetition's fault-tolerance bookkeeping: the stored
// images (StoreLedger) and, under a non-ideal Params.Imperfect, the
// imperfect model's state — where the oldest undetected divergence
// began, and the comparisons that missed it. Every random draw beyond
// the fault arrivals is made here, from the repetition's stream, in
// the engine's order: per stored image the stable-storage corruption
// draw, then the tier write-corruption draws; per comparison with
// divergence present the coverage draw. The zero value is inactive.
type FTLedger struct {
	StoreLedger
	imp *fault.Imperfection // nil on the ideal model
	// storeCorruption is the model's stable-storage corruption
	// probability, 0 on the ideal model; draws is set when a push draws
	// anything (it or a corruptible tier).
	storeCorruption float64
	draws           bool
	// divergedAt is the absolute task progress at which the oldest
	// currently-undetected divergence began (+Inf when clean).
	divergedAt float64
	missed     int
}

// Reset prepares the ledger for a repetition under p, drawing from src.
// The images live in p.CheckpointStore(); activity is counted into
// p.StoreStats when the run has a Params.Store, otherwise into the
// ledger's own scratch.
func (l *FTLedger) Reset(p *Params, src *rng.Source) {
	l.imp, l.storeCorruption = nil, 0
	if p.ImperfectFT() {
		l.imp, l.storeCorruption = p.Imperfect, p.Imperfect.StoreCorruption
	}
	l.divergedAt = math.Inf(1)
	l.missed = 0
	var stats *store.Stats
	if p.Store != nil {
		stats = p.StoreStats
	}
	l.StoreLedger.Reset(p.CheckpointStore(), stats, src)
	l.draws = l.storeCorruption > 0 || l.corruptible
}

// Imperfect reports whether the repetition runs the imperfect model.
func (l *FTLedger) Imperfect() bool { return l.imp != nil }

// Vulnerable reports whether checkpoint operations are exposed to the
// fault process.
func (l *FTLedger) Vulnerable() bool { return l.imp.CheckpointVulnerable }

// CascadeBudget is the number of corrupted restore attempts one
// recovery may spend before restarting.
func (l *FTLedger) CascadeBudget() int { return l.imp.Budget() }

// Strike records that the replicas diverged at absolute work w: a fault
// struck useful execution there, or a checkpoint operation storing w.
func (l *FTLedger) Strike(w float64) {
	if w < l.divergedAt {
		l.divergedAt = w
	}
}

// Store pushes the image a storing checkpoint writes at absolute work
// — every push of a run, on both fault-tolerance models. The image is
// diverged when the operation was struck or divergence began before
// work: the two halves differ and the image fails its consistency check
// for free at recovery time. A non-diverged image draws the
// stable-storage corruption first (imperfect model only): the damage
// passes the consistency check and is unmasked only by a restore
// attempt. The tier write-corruption draws follow, in write order. The
// set counts the eviction and the per-tier writes the insert caused. It
// returns the physical writes — the fresh image and any demotions —
// whose tier writes the caller charges in ascending tier order.
func (l *FTLedger) Store(work float64, struck bool) store.TierMask {
	diverged := struck || work > l.divergedAt
	if !l.draws {
		return l.set.Insert(work, diverged)
	}
	corrupted := !diverged && l.storeCorruption > 0 && l.src.Float64() < l.storeCorruption
	writes := l.set.Insert(work, diverged)
	if l.corruptible {
		l.corruptWrites(writes)
	}
	if corrupted {
		l.set.MarkCorrupted(l.set.Len() - 1)
	}
	return writes
}

// Compare applies detection coverage at a comparison point: detected
// reports that present divergence was flagged, missed that it slipped
// through. With no divergence present nothing is drawn.
func (l *FTLedger) Compare() (detected, missed bool) {
	if l.divergedAt > math.MaxFloat64 { // +Inf: clean
		return false, false
	}
	return l.compareDiverged()
}

// compareDiverged is Compare with divergence present, kept apart so
// that Compare's common clean case inlines.
func (l *FTLedger) compareDiverged() (detected, missed bool) {
	cov := l.imp.Coverage
	if cov >= 1 || (cov > 0 && l.src.Float64() < cov) {
		return true, false
	}
	l.missed++
	return false, true
}

// Resume settles a detected divergence after the restore walk (Walk
// with CascadeBudget) chose image chosen, -1 for none: images past the
// restored point hold overtaken state and are dropped, or the set
// empties for a restart from the beginning. The replicas agree again
// afterwards. It returns the absolute work restored to.
func (l *FTLedger) Resume(chosen int) (target float64, restarted bool) {
	if chosen >= 0 {
		target = l.Images()[chosen].Work
		l.truncateAfter(target)
	} else {
		l.restart()
		restarted = true
	}
	l.divergedAt = math.Inf(1)
	return target, restarted
}

// Wrong reports silent data corruption: the repetition completed with
// divergence still undetected.
func (l *FTLedger) Wrong(completed bool) bool {
	return completed && !math.IsInf(l.divergedAt, 1)
}

// runIntervalImperfect is RunInterval under an imperfect fault-tolerance
// model. The two flavours unify over the checkpoint set: SCP
// flavour stores at every sub-boundary and compares only at the closing
// CSCP; CCP flavour compares at every boundary and stores only at the
// CSCP. kept may be negative when a rollback cascade crosses the
// interval start.
func (e *Engine) runIntervalImperfect(itv float64, m int, sub checkpoint.Kind, doneWork float64) (kept float64, detected bool) {
	span := itv / float64(m)
	f := e.cur.Freq
	for j := 0; j < m; j++ {
		off, n := e.ExecSpan(span)
		if n > 0 {
			e.led.Strike(doneWork + (float64(j)*span+off)*f)
		}
		boundary := sub
		if j == m-1 {
			boundary = checkpoint.CSCP
		}
		e.checkpointOpImperfect(boundary, doneWork+float64(j+1)*span*f)
		if boundary != checkpoint.SCP && e.compareImperfect() {
			return e.recoverImperfect() - doneWork, true
		}
	}
	return itv * f, false
}

// checkpointOpImperfect charges one checkpoint operation, optionally
// exposing it to the fault process, and stores the image (for storing
// kinds) in the checkpoint set. work is the absolute task progress the
// image captures.
func (e *Engine) checkpointOpImperfect(k checkpoint.Kind, work float64) {
	d := e.wallCost(k)
	struck := false
	if e.led.Vulnerable() && d > 0 {
		// The operation's duration passes through the fault clock: any
		// arrival during it corrupts the replica state mid-operation.
		_, n := e.ExecSpan(d)
		struck = n > 0
	} else {
		e.Spend(d)
	}
	switch k {
	case checkpoint.CSCP:
		e.cscps++
	default:
		e.subs++
	}
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvCheckpoint, Time: e.t, Checkpoint: k})
	}
	if struck {
		e.led.Strike(work)
	}
	if k == checkpoint.CCP {
		return // compare-only: nothing stored
	}
	e.chargeWrites(e.led.Store(work, struck))
}

// compareImperfect applies detection coverage at a comparison point and
// reports whether present divergence was detected.
func (e *Engine) compareImperfect() bool {
	detected, missed := e.led.Compare()
	if missed && e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvMissedDetect, Time: e.t})
	}
	return detected
}

// recoverImperfect performs rollback after a detected divergence: restore
// the newest stored state at or before the divergence point, cascading
// past unusable images within the retry budget, and restarting from the
// beginning of the task as the last resort. It returns the absolute work
// level restored to.
func (e *Engine) recoverImperfect() float64 {
	target, restarted := e.led.Resume(e.restoreWalk(e.led.CascadeBudget()))
	if restarted {
		e.restarted()
	}
	e.Rollback(target)
	return target
}
