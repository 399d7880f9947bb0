// The retained checkpoint set of one running repetition: a bounded,
// tier-assigned ledger of checkpoint images, and the simulation
// engine's only stored-checkpoint ledger. The Set does the
// bookkeeping (bound enforcement via the policy, tier assignment by
// recency with sticky demotion); the engine charges the costs and draws
// the per-write corruption, so this package stays randomness-free.

package store

import "math"

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
	Tier int
	// Diverged marks an image stored after the replicas had silently
	// diverged; it can never be restored from (its digests disagree).
	Diverged bool
	// Corrupted marks an image silently damaged at write time; a
	// restore attempt fails and pays, pushing the cascade older.
	Corrupted bool
}

// Usable reports whether a rollback can restore from the image.
func (im Image) Usable() bool { return !im.Diverged && !im.Corrupted }

// Write is one physical image write performed by an Insert: the fresh
// image plus any demotions its arrival cascaded into deeper tiers. The
// engine charges Tier's write cost for each and draws that tier's
// corruption probability against the image at Index.
type Write struct {
	// Index into Images() after the insert.
	Index int
	// Tier the image was (re)written into.
	Tier int
}

// Set is the per-repetition retained checkpoint set. The zero value is
// inactive; Configure activates it for a run.
type Set struct {
	cfg    *Config
	pol    Policy
	bound  int
	prefix [MaxTiers]int // cumulative tier capacities
	imgs   []Image
	seq    uint64
	writes []Write // scratch returned by Insert, reused across calls
}

// Configure prepares the set for a run under cfg (which must have been
// Validated) and clears any previous run's images. A nil cfg
// deactivates the set.
func (s *Set) Configure(cfg *Config) {
	if cfg != s.cfg {
		s.cfg = cfg
		s.pol = nil
		if cfg != nil {
			pol, err := PolicyByName(cfg.Policy)
			if err != nil {
				// Config is validated at the Params boundary; reaching
				// here is a programming error.
				panic(err)
			}
			s.pol = pol
			s.bound = cfg.Bound()
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
	s.Clear()
}

// Active reports whether the set models a store this run.
func (s *Set) Active() bool { return s.cfg != nil }

// Config returns the active configuration (nil when inactive).
func (s *Set) Config() *Config { return s.cfg }

// Clear empties the set and rewinds the sequence counter — a fresh run
// segment, used at run start and on restart-from-scratch.
func (s *Set) Clear() {
	s.imgs = s.imgs[:0]
	s.seq = 0
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

// rankTier maps a recency rank (0 = newest) to its tier index.
func (s *Set) rankTier(rank int) int {
	for t := 0; t < len(s.cfg.Tiers); t++ {
		if rank < s.prefix[t] {
			return t
		}
	}
	// Unreachable when the set respects its bound (the last tier
	// absorbs everything up to the summed capacity).
	return len(s.cfg.Tiers) - 1
}

// Insert adds a fresh image at the given absolute work, evicting the
// policy's victim first when the set is at its bound. It returns the
// physical writes performed (the fresh image first, then demotions
// newest-first) and whether an eviction happened. The returned slice is
// scratch, reused by the next Insert.
func (s *Set) Insert(work float64, diverged bool) (writes []Write, evicted bool) {
	if s.bound > 0 && len(s.imgs) >= s.bound {
		s.evict()
		evicted = true
	}
	s.seq++
	// The fresh image always lands in the fastest tier. Its fields are
	// set in place: appending a composite literal builds it on the stack
	// first and stalls the copy-out on this per-store hot path.
	s.imgs = append(s.imgs, Image{})
	im := &s.imgs[len(s.imgs)-1]
	im.Work, im.Seq, im.Diverged = work, s.seq, diverged
	s.writes = append(s.writes[:0], Write{Index: len(s.imgs) - 1})
	if len(s.imgs) <= s.prefix[0] {
		// Every recency rank falls in the fastest tier, so no image can
		// demote — always the case under an unlimited first tier.
		return s.writes, evicted
	}
	s.demote()
	return s.writes, evicted
}

// evict discards the maintenance policy's victim.
func (s *Set) evict() {
	v := s.pol.Victim(s.imgs)
	s.imgs = append(s.imgs[:v], s.imgs[v+1:]...)
}

// demote moves every older image whose recency rank now falls in a
// deeper tier than it resides in down to that tier (tiers are sticky),
// appending one write per move, newest first. Every image already sits
// at or below its rank's tier, and one insert raises a rank by at most
// one, so only an image whose rank just reached a tier boundary
// (prefix[t], the first rank past tier t) can need a move: those are
// the only ones checked.
func (s *Set) demote() {
	n := len(s.imgs)
	for t := 0; t < len(s.cfg.Tiers)-1 && s.prefix[t] < n; t++ {
		rank := s.prefix[t]
		i := n - 1 - rank
		if rt := s.rankTier(rank); rt > s.imgs[i].Tier {
			s.imgs[i].Tier = rt
			s.writes = append(s.writes, Write{Index: i, Tier: rt})
		}
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
	return n - i
}
