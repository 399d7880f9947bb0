package sim

import (
	"math"

	"repro/internal/checkpoint"
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
			w := doneWork + (float64(j)*span+off)*f
			if w < e.divergedAt {
				e.divergedAt = w
			}
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
	if e.imp.CheckpointVulnerable && d > 0 {
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
	if struck && work < e.divergedAt {
		e.divergedAt = work
	}
	if k == checkpoint.CCP {
		return // compare-only: nothing stored
	}
	// The replicas disagreed while storing (or the op was struck
	// mid-write): the two halves differ, and the image fails its
	// consistency check for free at recovery time.
	diverged := struck || work > e.divergedAt
	// Stable-storage damage: the image still looks consistent and is
	// unmasked only by a restore attempt. Drawn only for non-diverged
	// images, before any tier draw inside pushImage.
	corrupted := !diverged && e.imp.StoreCorruption > 0 && e.src.Float64() < e.imp.StoreCorruption
	e.pushImage(work, diverged, corrupted)
}

// compareImperfect applies detection coverage at a comparison point and
// reports whether present divergence was detected. With no divergence
// present, no randomness is consumed.
func (e *Engine) compareImperfect() bool {
	if math.IsInf(e.divergedAt, 1) {
		return false
	}
	cov := e.imp.Coverage
	if cov >= 1 || (cov > 0 && e.src.Float64() < cov) {
		return true
	}
	e.missed++
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvMissedDetect, Time: e.t})
	}
	return false
}

// recoverImperfect performs rollback after a detected divergence: restore
// the newest stored state at or before the divergence point, cascading
// past unusable images within the retry budget, and restarting from the
// beginning of the task as the last resort. It returns the absolute work
// level restored to.
func (e *Engine) recoverImperfect() float64 {
	target := 0.0
	if i := e.restoreWalk(e.imp.Budget()); i >= 0 {
		// Images past the restored point hold overtaken state.
		target = e.led.Images()[i].Work
		e.led.truncateAfter(target)
	} else {
		e.restart()
	}
	e.divergedAt = math.Inf(1)
	e.Rollback(target)
	return target
}
