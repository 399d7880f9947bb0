package sim

import (
	"math"
	"math/bits"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/store"
)

// This file holds the engine's one stored-checkpoint ledger
// (StoreLedger over the checkpoint set of internal/store, shared with
// the batch kernels of package core) and the restore walk every
// recovery uses. The set is active in two cases: Params.Store replaces the
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
// has a Params.Store; the paper store counts into ledger scratch.
//
// Bit-compatibility contract: with Params.Store nil the ideal path never
// touches this file. With a store whose tiers are unlimited, zero-cost
// and invulnerable, trajectories are bit-identical to the storeless
// engine — pushes charge nothing and draw nothing, and every recovery
// restores the analytically-ideal target. The parity trick is
// store.Set.LastGood: the set remembers the sequence number of the
// newest non-diverged image; when that exact image survives, the recovery
// returns the *analytic* kept value (the same float expression the seed
// path computes) instead of re-deriving it from the image, so no
// floating-point re-association can creep in.

// paperStore is the set configuration of a storeless imperfect run: the
// paper's stable storage, holding every store of the run for free.
var paperStore = &store.Config{Tiers: []store.Tier{{Name: "paper"}}}

// StoreLedger is the part of one repetition's stored-checkpoint
// bookkeeping that touches neither energy nor time: the checkpoint set,
// its activity counters, the tier write-corruption draws, the analytic
// rollback target, the restore walk's choice, the recovery case choice
// and restart. The engine and the batch kernels (package core) both
// drive it and charge the costs themselves, each in its own way, so the
// rules have one home. The zero value is inactive.
type StoreLedger struct {
	set   store.Set
	stats *store.Stats
	own   store.Stats
	// src is the repetition's stream, drawn for the write corruption
	// of tiers with Corruption > 0 (never touched when no tier has it:
	// corruptible is false).
	src         *rng.Source
	corruptible bool
	walk        []int // attempt scratch returned by Walk
}

// Reset prepares the ledger for a repetition under cfg (nil
// deactivates it), drawing tier write corruption from src. Activity is
// counted into stats, or into the ledger's own scratch counters when
// stats is nil.
func (l *StoreLedger) Reset(cfg *store.Config, stats *store.Stats, src *rng.Source) {
	if stats == nil {
		stats = &l.own
	}
	l.stats = stats
	l.src = src
	if cfg != l.set.Config() {
		l.corruptible = corruptible(cfg)
	}
	l.set.Configure(cfg)
	l.set.CountInto(stats)
}

// active reports whether the ledger models a store this repetition.
func (l *StoreLedger) active() bool { return l.set.Active() }

// config returns the active store configuration.
func (l *StoreLedger) config() *store.Config { return l.set.Config() }

// Images returns the retained images oldest-first (see store.Set.Images).
func (l *StoreLedger) Images() []store.Image { return l.set.Images() }

// markCorrupted flags image i as silently damaged.
func (l *StoreLedger) markCorrupted(i int) { l.set.MarkCorrupted(i) }

// corruptWrites draws the write corruption of a push's writes: each
// write into a tier with Corruption > 0 draws that probability from the
// stream, in write order, and a hit silently damages the written image.
func (l *StoreLedger) corruptWrites(writes store.TierMask) {
	tiers := l.set.Config().Tiers
	for ; writes != 0; writes &= writes - 1 {
		t := bits.TrailingZeros8(uint8(writes))
		if c := tiers[t].Corruption; c > 0 && l.src.Float64() < c {
			l.set.MarkCorrupted(l.set.WriteIndex(t))
		}
	}
}

// corruptible reports whether a write into some tier of cfg can be
// corrupted (nil: no store, nothing to corrupt).
func corruptible(cfg *store.Config) bool {
	if cfg != nil {
		for _, t := range cfg.Tiers {
			if t.Corruption > 0 {
				return true
			}
		}
	}
	return false
}

// Walk is the paper's rollback rule (Fig. 3 line 12) over the
// checkpoint set: images newest to oldest, for the first one a restore
// succeeds from. Diverged images fail the consistency scan at no cost;
// every other image examined is a restore attempt that pays its tier
// read, and a corrupted one also pays a rollback charge and pushes the
// walk one image older. The walk gives up after budget corrupted
// attempts. It counts the attempts and the walk depth, and returns the
// attempted image indices in walk order (scratch, valid until the next
// Walk) and the restored image's index — the last attempt — or -1 when
// no attempt succeeded. The caller charges the attempts in order.
func (l *StoreLedger) Walk(budget int) (attempts []int, chosen int) {
	imgs := l.set.Images()
	cfg := l.set.Config()
	st := l.stats
	attempts, chosen = l.walk[:0], -1
	bad := 0
	for i := len(imgs) - 1; i >= 0 && bad < budget; i-- {
		im := &imgs[i]
		if im.Diverged {
			continue
		}
		attempts = append(attempts, i)
		st.TierRestores[im.Tier]++
		st.TierRestoreCycles[im.Tier] += cfg.Tiers[im.Tier].ReadCycles
		if im.Corrupted {
			bad++
			continue
		}
		chosen = i
		break
	}
	st.ObserveDepth(len(attempts))
	l.walk = attempts
	return attempts, chosen
}

// SettleIdeal is the recovery case choice of the ideal fault-tolerance
// path after a walk restored image chosen (-1: none). idealKept is the
// work the storeless engine would retain, relative to doneWork. When
// the image carrying that state survived, idealKept comes back bit for
// bit; otherwise the run re-executes from the older image the walk
// found, or restarts from scratch when the set holds nothing usable.
// It returns the kept work relative to doneWork (negative when the
// restore crossed the interval start), the absolute work the rollback
// restores, and whether the run restarted.
func (l *StoreLedger) SettleIdeal(chosen int, doneWork, idealKept float64) (kept, target float64, restarted bool) {
	imgs := l.set.Images()
	switch {
	case chosen >= 0 && imgs[chosen].Seq == l.set.LastGood():
		// The analytic rollback target survived: the trajectory is the
		// storeless one, bit for bit (under zero-cost tiers).
		limit := doneWork + idealKept
		if w := imgs[chosen].Work; w > limit {
			limit = w
		}
		l.truncateAfter(limit)
		return idealKept, doneWork + idealKept, false
	case chosen >= 0:
		// Degraded: the target was evicted or corrupted; re-execute
		// from the older surviving image.
		w := imgs[chosen].Work
		l.truncateAfter(w)
		return w - doneWork, w, false
	case doneWork == 0 && idealKept == 0:
		// Rolling back to the task origin needs no stored image — a
		// first-interval fault, not a restart.
		return idealKept, doneWork + idealKept, false
	}
	l.restart()
	return -doneWork, 0, true
}

// truncateAfter drops the images past limit — state overtaken by the
// rollback — and counts them.
func (l *StoreLedger) truncateAfter(limit float64) {
	l.stats.Truncated += uint64(l.set.TruncateAfter(limit))
}

// restart empties the set after a recovery found no usable image: the
// run re-executes from scratch (Sodre's restart discipline).
func (l *StoreLedger) restart() {
	l.stats.Restarts++
	l.set.Clear()
}

// pushImage stores a checkpoint image at absolute work through the
// ledger (which draws the per-tier write corruption) and charges the
// tier writes. On the ideal path the ledger's Store stores exactly the
// image it is given.
func (e *Engine) pushImage(work float64, diverged bool) {
	e.chargeWrites(e.led.Store(work, diverged))
}

// chargeWrites charges the tier write cost of each physical write, in
// write order.
func (e *Engine) chargeWrites(writes store.TierMask) {
	tiers := e.led.config().Tiers
	for ; writes != 0; writes &= writes - 1 {
		if wc := tiers[bits.TrailingZeros8(uint8(writes))].WriteCycles; wc > 0 {
			e.Spend(wc / e.cur.Freq)
		}
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
		e.pushImage(doneWork+itv*f, off >= 0)
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
				e.pushImage(doneWork+float64(j+1)*span*f, struck)
			}
		}
		e.CheckpointOp(checkpoint.CSCP)
		e.pushImage(doneWork+itv*f, struck)
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
				e.pushImage(doneWork+itv*f, off >= 0)
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
// path: the restore walk, then the ledger's case choice (SettleIdeal),
// then the rollback charge. Returns the kept work relative to doneWork.
func (e *Engine) recoverStoreIdeal(doneWork, idealKept float64) float64 {
	kept, target, restarted := e.led.SettleIdeal(e.restoreWalk(math.MaxInt), doneWork, idealKept)
	if restarted {
		e.restarted()
	}
	e.Rollback(target)
	return kept
}

// restoreWalk runs the ledger's restore walk and charges its attempts
// in walk order: a corrupted image pays a rollback charge and then its
// tier read, the restored one its tier read. Returns the restored
// image's index, or -1.
func (e *Engine) restoreWalk(budget int) int {
	attempts, chosen := e.led.Walk(budget)
	imgs := e.led.Images()
	cfg := e.led.config()
	for _, i := range attempts {
		if i != chosen {
			e.corruptRestores++
			e.Spend(e.wallRollback)
		}
		if rc := cfg.Tiers[imgs[i].Tier].ReadCycles; rc > 0 {
			e.Spend(rc / e.cur.Freq)
		}
		if i != chosen && e.p.Trace != nil {
			e.p.Trace.add(Event{Kind: EvBadStore, Time: e.t, Value: imgs[i].Work})
		}
	}
	return chosen
}

// restarted records a restart-from-scratch in the run's result and
// trace.
func (e *Engine) restarted() {
	e.restarts++
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvRestart, Time: e.t})
	}
}
