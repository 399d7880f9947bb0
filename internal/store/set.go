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
	policy policyKind
	bound  int
	last   int           // index of the deepest tier
	prefix [MaxTiers]int // cumulative tier capacities
	imgs   []Image
	seq    uint64
	writes [MaxTiers]Write // scratch returned by Insert: a fresh write and at most one demotion per deeper tier
	stats  *Stats          // receives Insert's counts (CountInto)
	own    Stats           // stats when the caller gave none
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

// Insert adds a fresh image at the given absolute work, evicting the
// policy's victim first when the set is at its bound. It returns the
// physical writes performed (the fresh image first, then demotions
// newest-first) and whether an eviction happened, and counts all of it
// (see CountInto). The returned slice is scratch, reused by the next
// Insert.
func (s *Set) Insert(work float64, diverged bool) (writes []Write, evicted bool) {
	st := s.stats
	imgs := s.imgs
	n := len(imgs)
	if s.bound > 0 && n >= s.bound {
		// Evict in place: the images newer than the victim shift down
		// one slot and the fresh image takes the freed last slot, so
		// the length never changes at the bound. A set holds a handful
		// of images, so the shift is an element loop, not a memmove.
		v := 0
		if s.policy == quasiGeometric {
			v = quasiGeometricVictim(imgs)
		}
		for i := v; i < n-1; i++ {
			imgs[i] = imgs[i+1]
		}
		evicted = true
		st.Evictions++
	} else {
		imgs = append(imgs, Image{})
		s.imgs = imgs
		n++
	}
	s.seq++
	// The fresh image always lands in the fastest tier. Its fields are
	// set in place: assigning a composite literal builds it on the stack
	// first and stalls the copy-out on this per-store hot path.
	im := &imgs[n-1]
	im.Work, im.Seq, im.Tier, im.Diverged, im.Corrupted = work, s.seq, 0, diverged, false
	s.writes[0] = Write{Index: n - 1}
	st.TierWrites[0]++
	nw := 1
	// Demotions: every older image whose recency rank now falls in a
	// deeper tier than it resides in moves down to that tier (tiers are
	// sticky). Every image already sits at or below its rank's tier, and
	// one insert raises a rank by at most one, so only an image whose
	// rank just reached a tier boundary — prefix[t], the first rank of
	// tier t+1 — can need a move. Under an unlimited first tier no rank
	// reaches one.
	for t := 0; t < s.last && s.prefix[t] < n; t++ {
		i := n - 1 - s.prefix[t]
		if imgs[i].Tier <= t {
			imgs[i].Tier = t + 1
			s.writes[nw] = Write{Index: i, Tier: t + 1}
			nw++
			st.Demotions++
			st.TierWrites[t+1]++
		}
	}
	return s.writes[:nw], evicted
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
