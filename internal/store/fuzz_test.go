package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzStoreConfig feeds arbitrary JSON to a store.Config, as a job spec
// or unit request carries it. Decode and Validate must never panic, and
// every valid config must survive CanonicalJSON: the canonical bytes
// decode to an equal config whose canonical bytes are identical — the
// stability the result cache's content address depends on.
func FuzzStoreConfig(f *testing.F) {
	for _, c := range []*Config{
		DefaultConfig(4),
		DefaultConfig(0),
		{Tiers: []Tier{{Name: "nvram", Capacity: 2, WriteCycles: 5, ReadCycles: 3}, {Name: "flash", WriteCycles: 10, ReadCycles: 8, Corruption: 0.01}}, K: 5, Policy: PolicyEvictOldest},
	} {
		f.Add(c.CanonicalJSON())
	}
	f.Add([]byte(`{"tiers":[]}`))
	f.Add([]byte(`{"tiers":[{"name":"x","capacity":0},{"name":"y","capacity":1}]}`))
	f.Add([]byte(`{"tiers":[{"name":"x","capacity":1,"write_cycles":-1}],"policy":"lru"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil || c.Validate() != nil {
			return
		}
		canon := c.CanonicalJSON()
		var again Config
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("canonical JSON of a valid config is invalid: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("canonical round trip changed the config:\n got %+v\nwant %+v", again, c)
		}
		if again := again.CanonicalJSON(); !bytes.Equal(again, canon) {
			t.Fatalf("canonical JSON not stable:\n%s\n%s", canon, again)
		}
	})
}

// FuzzSetOps drives a Set through a random sequence of Insert,
// TruncateAfter, Clear and MarkCorrupted calls under a random valid
// config, and after every call compares Images() and the returned
// writes with a naive model: at the bound the model evicts the victim
// of its own brute-force policy reference, an image's tier is the
// larger of its old tier and the tier its recency rank falls in, and
// the writes are the fresh image, then every image whose tier grew,
// newest first — each into its own tier, as the returned TierMask and
// WriteIndex report, and each write and eviction counted into the set's
// Stats.
//
// The config comes from nTiers (1-4 tiers), caps (4 bits of capacity
// per tier; 0 on the last tier means unlimited), k and quasi. Each op
// byte b selects by b%4: 0-1 Insert (diverged = b&0x10, work advances
// by b>>5), 2 TruncateAfter (limit = newest work − (b>>2)&7), 3 Clear
// (b&4 == 0) or MarkCorrupted (image (b>>3) mod Len).
func FuzzSetOps(f *testing.F) {
	// One unlimited tier, the storeless imperfect run's store; starts
	// with a truncate and a clear on the empty set.
	f.Add(uint8(0), uint16(0), uint8(0), false, []byte{0x02, 0x03, 0x20, 0x30, 0x20, 0x0f, 0x20, 0x06, 0x02, 0x20, 0x03, 0x20})
	// The Work == limit boundary: images at 1 and 2, truncated at 2,
	// both survive — the state rolled back to is kept.
	f.Add(uint8(0), uint16(0), uint8(0), false, []byte{0x20, 0x20, 0x02})
	// DefaultConfig(4)'s shape: 2 fast + 2 slow slots, quasi-geometric.
	f.Add(uint8(1), uint16(0x22), uint8(4), true, []byte{0x20, 0x20, 0x30, 0x20, 0x20, 0x40, 0x20, 0x17, 0x20, 0x20, 0x0e, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x03, 0x20, 0x20})
	// DefaultConfig(8)'s shape: 2 fast + 6 slow slots, quasi-geometric,
	// with long insert runs across truncations — the k8 column's
	// steady state, where the victim is found without a rescan and a
	// truncation or a deep eviction rebuilds the deep region.
	f.Add(uint8(1), uint16(0x62), uint8(8), true, []byte{0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x0a, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x1e, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x20, 0x30, 0x0e, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x0f, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x02, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20})
	// Four tiers over an unlimited tail with an explicit bound.
	f.Add(uint8(3), uint16(0x0321), uint8(9), false, []byte{0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x0a, 0x20, 0x20, 0x20})
	f.Fuzz(func(t *testing.T, nTiers uint8, caps uint16, k uint8, quasi bool, ops []byte) {
		cfg := &Config{Tiers: make([]Tier, 1+int(nTiers)%MaxTiers)}
		last := len(cfg.Tiers) - 1
		total := 0
		for i := range cfg.Tiers {
			c := int(caps>>(4*i)) & 0xf
			if c == 0 && i < last {
				c = 1
			}
			cfg.Tiers[i].Capacity = c
			total += c
		}
		if cfg.Tiers[last].Capacity == 0 {
			cfg.K = int(k) % 16
		} else {
			cfg.K = int(k) % (total + 1)
		}
		if quasi {
			cfg.Policy = PolicyQuasiGeometric
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("built an invalid config %+v: %v", cfg, err)
		}
		bound := cfg.Bound()

		// victim is the naive reference of the maintenance policies,
		// written apart from the set's own: evict-oldest drops image 0;
		// quasi-geometric drops the rightmost non-newest image whose
		// sequence number has the fewest trailing zero bits, found by
		// a full oldest-first scan that counts the bits one by one.
		zeros := func(seq uint64) int {
			n := 0
			for seq != 0 && seq%2 == 0 {
				seq /= 2
				n++
			}
			return n
		}
		victim := func(imgs []Image) int {
			if !quasi || len(imgs) <= 1 {
				return 0
			}
			best := 0
			for i := 1; i < len(imgs)-1; i++ {
				if zeros(imgs[i].Seq) <= zeros(imgs[best].Seq) {
					best = i
				}
			}
			return best
		}

		// rankTier is the naive tier of recency rank r: the first tier
		// whose cumulative capacity exceeds r.
		rankTier := func(r int) int {
			sum := 0
			for t, tier := range cfg.Tiers {
				if tier.Capacity <= 0 {
					return t
				}
				sum += tier.Capacity
				if r < sum {
					return t
				}
			}
			return last
		}

		var s Set
		s.Configure(cfg)
		var stats, wantStats Stats
		s.CountInto(&stats)
		var model []Image
		var seq uint64
		work := 0.0
		for step, b := range ops {
			switch b % 4 {
			case 0, 1:
				wantEvicted := bound > 0 && len(model) >= bound
				if wantEvicted {
					v := victim(model)
					model = append(model[:v], model[v+1:]...)
				}
				work += float64(b >> 5)
				seq++
				model = append(model, Image{Work: work, Seq: seq, Diverged: b&0x10 != 0})
				n := len(model)
				// wantWrites[t] is the index of the image written into
				// tier t, -1 for none: the fresh image into tier 0, and
				// newest first each demoted image into a deeper tier than
				// the last, which the TierMask's write order relies on.
				wantWrites := [MaxTiers]int{n - 1, -1, -1, -1}
				deepest := 0
				for i := n - 2; i >= 0; i-- {
					if rt := rankTier(n - 1 - i); rt > int(model[i].Tier) {
						if rt <= deepest {
							t.Fatalf("step %d: model demotes image %d into tier %d after a write into tier %d", step, i, rt, deepest)
						}
						model[i].Tier = uint8(rt)
						wantWrites[rt], deepest = i, rt
					}
				}
				writes := s.Insert(work, b&0x10 != 0)
				for ti, want := range wantWrites {
					if got := writes&(1<<ti) != 0; got != (want >= 0) {
						t.Fatalf("step %d: Insert writes %04b, model indices per tier %v", step, writes, wantWrites)
					}
					if want >= 0 && s.WriteIndex(ti) != want {
						t.Fatalf("step %d: tier %d write at index %d, model %d", step, ti, s.WriteIndex(ti), want)
					}
				}
				if wantEvicted {
					wantStats.Evictions++
				}
				for ti, want := range wantWrites {
					if want >= 0 {
						wantStats.TierWrites[ti]++
						if ti > 0 {
							wantStats.Demotions++
						}
					}
				}
				if stats != wantStats {
					t.Fatalf("step %d: Insert counted %+v, model %+v", step, stats, wantStats)
				}
			case 2:
				limit := work - float64((b>>2)&7)
				keep := len(model)
				for keep > 0 && model[keep-1].Work > limit {
					keep--
				}
				if got, want := s.TruncateAfter(limit), len(model)-keep; got != want {
					t.Fatalf("step %d: TruncateAfter(%v) dropped %d, model %d", step, limit, got, want)
				}
				model = model[:keep]
				work = limit
			case 3:
				if b&4 == 0 {
					s.Clear()
					model, seq = nil, 0
				} else if len(model) > 0 {
					i := int(b>>3) % len(model)
					s.MarkCorrupted(i)
					model[i].Corrupted = true
				}
			}
			if got := s.Images(); len(got) != len(model) || (len(got) > 0 && !reflect.DeepEqual(got, model)) {
				t.Fatalf("step %d (op %#02x): images\n got %+v\nwant %+v", step, b, got, model)
			}
		}
	})
}
