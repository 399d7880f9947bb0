package sim

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/store"
)

// This file holds the engine's one stored-checkpoint ledger, the
// checkpoint set (internal/store), and the restore walk every recovery
// uses. The set is active in two cases: Params.Store replaces the
// paper's free, infinite stable storage with a bounded set of images
// spread over storage tiers, and a storeless imperfect run (imperfect.go)
// keeps its images in the paper store — one unlimited tier with no
// costs and no corruption.
//
// A Params.Store adds three departures from the seed engine:
//
//  1. Bounded retention: each stored checkpoint becomes an image in a
//     k-bounded set; at the bound the maintenance policy picks a victim.
//     A rollback whose analytic target was evicted walks older
//     survivors and re-executes the gap — or restarts from scratch when
//     nothing usable remains.
//  2. Tier costs: every physical image write (fresh stores and
//     demotions cascading into deeper tiers) and every restore attempt
//     charges the tier's cycle cost on top of the paper's flat
//     checkpoint/rollback costs.
//  3. Tier vulnerability: a write into a tier with Corruption > 0 may
//     silently damage the image; the damage is unmasked only when a
//     recovery attempts the restore, feeding the same cascade the
//     imperfect-FT model uses.
//
// Store activity is counted into Params.StoreStats only when the run
// has a Params.Store; the paper store counts into engine scratch.
//
// Bit-compatibility contract: with Params.Store nil the ideal path never
// touches this file. With a store whose tiers are unlimited, zero-cost
// and invulnerable, trajectories are bit-identical to the storeless
// engine — pushes charge nothing and draw nothing, and every recovery
// restores the analytically-ideal target. The parity trick is
// lastGoodSeq: the engine remembers the sequence number of the newest
// non-diverged image; when that exact image survives, the recovery
// returns the *analytic* kept value (the same float expression the seed
// path computes) instead of re-deriving it from the image, so no
// floating-point re-association can creep in.

// paperStore is the set configuration of a storeless imperfect run: the
// paper's stable storage, holding every store of the run for free.
var paperStore = &store.Config{Tiers: []store.Tier{{Name: "paper"}}}

// pushImage inserts a checkpoint image at absolute work, charging tier
// write costs and drawing per-tier write corruption from the run's rng
// stream (writes into invulnerable tiers draw nothing). preCorrupted
// additionally marks the fresh image damaged — the imperfect path's
// stable-storage corruption, drawn by the caller before the tier draws.
func (e *Engine) pushImage(work float64, diverged, preCorrupted bool) {
	writes, evicted := e.set.Insert(work, diverged)
	st := e.sstats
	if evicted {
		st.Evictions++
	}
	cfg := e.set.Config()
	for wi, w := range writes {
		st.TierWrites[w.Tier]++
		if wi > 0 {
			st.Demotions++
		}
		tier := &cfg.Tiers[w.Tier]
		if tier.WriteCycles > 0 {
			e.Spend(tier.WriteCycles / e.cur.Freq)
		}
		if tier.Corruption > 0 && e.src.Float64() < tier.Corruption {
			e.set.MarkCorrupted(w.Index)
		}
	}
	fresh := writes[0].Index
	if preCorrupted {
		e.set.MarkCorrupted(fresh)
	}
	if !diverged {
		// The newest non-diverged image is the analytic rollback target
		// the storeless engine would restore; recoveries check survival
		// by this sequence number.
		e.lastGoodSeq = e.set.Images()[fresh].Seq
	}
}

// chargeRestoreAttempt charges one restore attempt from image index i
// (tier read cycles at the current speed) and records it.
func (e *Engine) chargeRestoreAttempt(i int) {
	tier := e.set.Tier(i)
	ti := e.set.Images()[i].Tier
	st := e.sstats
	st.TierRestores[ti]++
	st.TierRestoreCycles[ti] += tier.ReadCycles
	if tier.ReadCycles > 0 {
		e.Spend(tier.ReadCycles / e.cur.Freq)
	}
}

// runIntervalStore is RunInterval over the tiered store on the ideal
// fault-tolerance path (perfect detection, but bounded retention and
// fallible tiers). The control flow and every float expression mirror
// the seed path; only the store bookkeeping is added. kept may be
// negative when a degraded recovery restores state older than the
// interval start.
func (e *Engine) runIntervalStore(itv float64, m int, sub checkpoint.Kind, doneWork float64) (kept float64, detected bool) {
	f := e.cur.Freq
	if m == 1 {
		off := e.execSpan(itv)
		e.CheckpointOp(checkpoint.CSCP)
		e.pushImage(doneWork+itv*f, off >= 0, false)
		if off < 0 {
			return itv * f, false
		}
		return e.recoverStoreIdeal(doneWork, 0), true
	}
	span := itv / float64(m)

	switch sub {
	case checkpoint.SCP:
		firstOffset := -1.0 // offset of earliest fault from interval start, wall
		struck := false     // integer-exact "a fault has happened" flag for divergence marking
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			if off >= 0 && firstOffset < 0 {
				firstOffset = float64(j)*span + off
			}
			if off >= 0 {
				struck = true
			}
			if j < m-1 {
				e.CheckpointOp(checkpoint.SCP)
				e.pushImage(doneWork+float64(j+1)*span*f, struck, false)
			}
		}
		e.CheckpointOp(checkpoint.CSCP)
		e.pushImage(doneWork+itv*f, struck, false)
		if firstOffset < 0 {
			return itv * f, false
		}
		goodBoundary := math.Floor(firstOffset / span)
		kept = goodBoundary * span * f
		return e.recoverStoreIdeal(doneWork, kept), true

	case checkpoint.CCP:
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			boundary := checkpoint.CCP
			if j == m-1 {
				boundary = checkpoint.CSCP
			}
			e.CheckpointOp(boundary)
			if boundary == checkpoint.CSCP {
				// CCPs store nothing; only the closing CSCP writes an
				// image, diverged when the last span was struck.
				e.pushImage(doneWork+itv*f, off >= 0, false)
			}
			if off >= 0 {
				return e.recoverStoreIdeal(doneWork, 0), true
			}
		}
		return itv * f, false

	default:
		panic("sim: sub-checkpoint flavour must be SCP or CCP")
	}
}

// recoverStoreIdeal performs the store-aware rollback on the ideal
// path. idealKept is the work the storeless engine would retain
// (relative to doneWork); when the image carrying that state survives,
// the same value is returned bit for bit. Otherwise the run re-executes
// from the older image the restore walk found, or restarts from scratch
// when the set holds nothing usable. Returns the kept work relative to
// doneWork (negative when the restore crossed the interval start).
func (e *Engine) recoverStoreIdeal(doneWork, idealKept float64) float64 {
	i := e.restoreWalk(math.MaxInt)
	imgs := e.set.Images()
	switch {
	case i >= 0 && imgs[i].Seq == e.lastGoodSeq:
		// The analytic rollback target survived: the trajectory is the
		// storeless one, bit for bit (under zero-cost tiers).
		limit := doneWork + idealKept
		if w := imgs[i].Work; w > limit {
			limit = w
		}
		e.sstats.Truncated += uint64(e.set.TruncateAfter(limit))
		e.Rollback(doneWork + idealKept)
		return idealKept
	case i >= 0:
		// Degraded: the target was evicted or corrupted; re-execute
		// from the older surviving image.
		w := imgs[i].Work
		e.sstats.Truncated += uint64(e.set.TruncateAfter(w))
		e.Rollback(w)
		return w - doneWork
	case doneWork == 0 && idealKept == 0:
		// Rolling back to the task origin needs no stored image — a
		// first-interval fault, not a restart.
		e.Rollback(doneWork + idealKept)
		return idealKept
	}
	e.restart()
	e.Rollback(0)
	return -doneWork
}

// restoreWalk is the paper's rollback rule (Fig. 3 line 12) over the
// checkpoint set: it walks the images newest to oldest for the first
// one a restore succeeds from. Diverged images fail the consistency
// scan at no cost; each restore attempt pays the tier read, and a
// corrupted image also pays a rollback charge and pushes the walk one
// image older. The walk gives up after budget corrupted attempts. It
// records the walk depth and returns the restored image's index, or -1
// when no attempt succeeded.
func (e *Engine) restoreWalk(budget int) int {
	imgs := e.set.Images()
	depth, attempts := 0, 0
	chosen := -1
	for i := len(imgs) - 1; i >= 0 && attempts < budget; i-- {
		im := imgs[i]
		if im.Diverged {
			continue
		}
		depth++
		if im.Corrupted {
			attempts++
			e.corruptRestores++
			e.Spend(e.wallRollback)
			e.chargeRestoreAttempt(i)
			if e.p.Trace != nil {
				e.p.Trace.add(Event{Kind: EvBadStore, Time: e.t, Value: im.Work})
			}
			continue
		}
		e.chargeRestoreAttempt(i)
		chosen = i
		break
	}
	e.sstats.ObserveDepth(depth)
	return chosen
}

// restart empties the set after a recovery found no usable image: the
// run re-executes from scratch (Sodre's restart discipline).
func (e *Engine) restart() {
	e.restarts++
	e.sstats.Restarts++
	e.set.Clear()
	e.lastGoodSeq = 0
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvRestart, Time: e.t})
	}
}
