// The retained checkpoint set of one running repetition: a bounded,
// tier-assigned ledger of checkpoint images, and the simulation
// engine's only stored-checkpoint ledger. The Set does the
// bookkeeping (bound enforcement via the policy, tier assignment by
// recency with sticky demotion); the engine charges the costs and draws
// the per-write corruption, so this package stays randomness-free.

package store

import (
	"math"
	"slices"
)

// Image is one retained checkpoint image.
type Image struct {
	// Work is the absolute task progress (cycles) the image captures.
	Work float64
	// Seq is the 1-based store sequence number within the current run
	// segment (reset on restart-from-scratch) — the coordinate the
	// maintenance policies reason in.
	Seq uint64
	// Tier is the index into Config.Tiers where the image currently
	// resides. Assignment is by recency: the newest images occupy the
	// fastest tier up to its capacity and overflow cascades down.
	// Tiers are sticky — an image is only ever demoted, never
	// promoted, so no free "uplift" of old images into fast memory.
	// A byte keeps the image at 24 bytes: an eviction shifts the images
	// newer than the victim down one slot.
	Tier uint8
	// Diverged marks an image stored after the replicas had silently
	// diverged; it can never be restored from (its digests disagree).
	Diverged bool
	// Corrupted marks an image silently damaged at write time; a
	// restore attempt fails and pays, pushing the cascade older.
	Corrupted bool
}

// Usable reports whether a rollback can restore from the image.
func (im Image) Usable() bool { return !im.Diverged && !im.Corrupted }

// TierMask is the set of physical image writes one Insert performed:
// bit t set means one image written into tier t. An insert writes at
// most one image per tier, in ascending tier order — the fresh image
// into tier 0, then each demotion one tier deeper than the last — so
// the mask is also the write order. The engine charges each tier's
// write cost and draws its corruption probability against the image
// WriteIndex names.
type TierMask uint8

// Set is the per-repetition retained checkpoint set. The zero value is
// inactive; Configure activates it for a run.
type Set struct {
	cfg    *Config
	policy policyKind
	bound  int
	last   int           // index of the deepest tier
	prefix [MaxTiers]int // cumulative tier capacities
	imgs   []Image
	seq    uint64
	good   uint64 // sequence number of the newest non-diverged image
	stats  *Stats // receives Insert's counts (CountInto)
	// spaced is set under the quasi-geometric policy with a bound: the
	// set then keeps the newest lowest level of its deep region — every
	// image older than the second newest — as deepLevel at deepIdx
	// (noLevel when the region is empty), so a victim needs no rescan.
	spaced    bool
	deepLevel int
	deepIdx   int
	own       Stats // stats when the caller gave none; last, off Insert's cache lines
}

// Configure prepares the set for a run under cfg (which must have been
// Validated) and clears any previous run's images. A nil cfg
// deactivates the set.
func (s *Set) Configure(cfg *Config) {
	if cfg != s.cfg {
		s.cfg = cfg
		if cfg != nil {
			policy, err := policyByName(cfg.Policy)
			if err != nil {
				// Config is validated at the Params boundary; reaching
				// here is a programming error.
				panic(err)
			}
			s.policy = policy
			s.bound = cfg.Bound()
			s.spaced = policy == quasiGeometric && s.bound > 0
			s.last = len(cfg.Tiers) - 1
			sum := 0
			for i, t := range cfg.Tiers {
				if t.Capacity <= 0 {
					sum = math.MaxInt
				} else {
					sum += t.Capacity
				}
				s.prefix[i] = sum
			}
		}
	}
	if s.stats == nil {
		s.stats = &s.own
	}
	s.Clear()
}

// CountInto directs the counts of every later Insert — evictions,
// demotions and per-tier writes — into st; nil counts into the set's
// own scratch.
func (s *Set) CountInto(st *Stats) {
	if st == nil {
		st = &s.own
	}
	s.stats = st
}

// Seq returns the sequence number of the newest stored image (0 after
// Clear).
func (s *Set) Seq() uint64 { return s.seq }

// LastGood returns the sequence number of the newest image inserted
// non-diverged since Clear (0 for none), whether or not it is still
// retained.
func (s *Set) LastGood() uint64 { return s.good }

// Active reports whether the set models a store this run.
func (s *Set) Active() bool { return s.cfg != nil }

// Config returns the active configuration (nil when inactive).
func (s *Set) Config() *Config { return s.cfg }

// Clear empties the set and rewinds the sequence counter — a fresh run
// segment, used at run start and on restart-from-scratch.
func (s *Set) Clear() {
	s.imgs = s.imgs[:0]
	s.seq, s.good = 0, 0
	s.deepLevel, s.deepIdx = noLevel, -1
}

// Len returns the number of retained images.
func (s *Set) Len() int { return len(s.imgs) }

// Images returns the retained images oldest-first. The slice aliases
// the set's storage and is invalidated by the next mutating call.
func (s *Set) Images() []Image { return s.imgs }

// Tier returns the tier description image i currently resides in.
func (s *Set) Tier(i int) Tier { return s.cfg.Tiers[s.imgs[i].Tier] }

// MarkCorrupted flags image i as silently damaged.
func (s *Set) MarkCorrupted(i int) { s.imgs[i].Corrupted = true }

// Insert adds a fresh image at the given absolute work, evicting the
// policy's victim first when the set is at its bound. It returns the
// physical writes performed — the fresh image and any demotions — and
// counts them and the eviction (see CountInto).
func (s *Set) Insert(work float64, diverged bool) TierMask {
	st := s.stats
	imgs := s.imgs
	n := len(imgs)
	if s.bound > 0 && n >= s.bound {
		// Evict in place: the images newer than the victim shift down
		// one slot and the fresh image takes the freed last slot, so
		// the length never changes at the bound. A set holds a handful
		// of images, so the shift is an element loop, not a memmove.
		v := 0
		if s.spaced && n > 1 {
			// The quasi-geometric victim is the newest image of the
			// lowest level but the head: the second newest, unless the
			// deep region below it holds a lower level. In a run of
			// inserts it is nearly always the second newest, which
			// leaves the deep region as it was.
			v = n - 2
			if level(imgs[v].Seq) > s.deepLevel {
				v = s.deepIdx
			}
		}
		if v == n-2 {
			imgs[v] = imgs[v+1]
		} else {
			for i := v; i < n-1; i++ {
				imgs[i] = imgs[i+1]
			}
		}
		if s.spaced && v < n-2 {
			// The deep region lost an image: rescan it (inline, so the
			// common path spills nothing for a call).
			s.deepLevel, s.deepIdx = lowestLevel(imgs[:n-2])
		}
		st.Evictions++
	} else {
		if n == cap(imgs) {
			// A tail call, so the common path spills nothing for it.
			return s.growInsert(work, diverged)
		}
		imgs = imgs[:n+1]
		s.imgs = imgs
		n++
		if s.spaced && n >= 3 {
			// The previous second newest joins the deep region.
			if l := level(imgs[n-3].Seq); l <= s.deepLevel {
				s.deepLevel, s.deepIdx = l, n-3
			}
		}
	}
	s.seq++
	if !diverged {
		s.good = s.seq
	}
	// The fresh image always lands in the fastest tier. Its fields are
	// set in place: assigning a composite literal builds it on the stack
	// first and stalls the copy-out on this per-store hot path.
	im := &imgs[n-1]
	im.Work, im.Seq, im.Tier, im.Diverged, im.Corrupted = work, s.seq, 0, diverged, false
	st.TierWrites[0]++
	writes := TierMask(1)
	// Demotions: every older image whose recency rank now falls in a
	// deeper tier than it resides in moves down to that tier (tiers are
	// sticky). Every image already sits at or below its rank's tier, and
	// one insert raises a rank by at most one, so only an image whose
	// rank just reached a tier boundary — prefix[t], the first rank of
	// tier t+1 — can need a move. Under an unlimited first tier no rank
	// reaches one.
	for t := 0; t < s.last && s.prefix[t] < n; t++ {
		i := n - 1 - s.prefix[t]
		if int(imgs[i].Tier) <= t {
			imgs[i].Tier = uint8(t + 1)
			writes |= 2 << t
			st.Demotions++
			st.TierWrites[t+1]++
		}
	}
	return writes
}

// growInsert is Insert into a set whose images fill their backing
// array: grow it, then insert.
func (s *Set) growInsert(work float64, diverged bool) TierMask {
	s.imgs = slices.Grow(s.imgs, 1)
	return s.Insert(work, diverged)
}

// WriteIndex returns the index into Images() of the image the last
// Insert wrote into tier t, which must be in that Insert's TierMask:
// the fresh image for tier 0, otherwise the image demoted there.
func (s *Set) WriteIndex(t int) int {
	n := len(s.imgs)
	if t == 0 {
		return n - 1
	}
	return n - 1 - s.prefix[t-1]
}

// rescanDeep recomputes the deep region's newest lowest level after
// the region lost an image.
func (s *Set) rescanDeep() {
	s.deepLevel, s.deepIdx = noLevel, -1
	if n := len(s.imgs); n >= 3 {
		s.deepLevel, s.deepIdx = lowestLevel(s.imgs[:n-2])
	}
}

// TruncateAfter drops every image whose Work exceeds limit — stale
// post-rollback state overtaken by re-execution. Returns the count
// dropped. Work is nondecreasing in insertion order within a run
// segment, so this always removes a suffix.
func (s *Set) TruncateAfter(limit float64) int {
	n := len(s.imgs)
	i := n
	for i > 0 && s.imgs[i-1].Work > limit {
		i--
	}
	s.imgs = s.imgs[:i]
	if s.spaced && i < n {
		s.rescanDeep()
	}
	return n - i
}
