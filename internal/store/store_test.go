package store

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func twoTier(cap0, cap1, k int, policy string) *Config {
	return &Config{
		Tiers: []Tier{
			{Name: "nvram", Capacity: cap0, WriteCycles: 2, ReadCycles: 2},
			{Name: "flash", Capacity: cap1, WriteCycles: 20, ReadCycles: 1},
		},
		K:      k,
		Policy: policy,
	}
}

func TestConfigValidate(t *testing.T) {
	good := []*Config{
		nil,
		twoTier(1, 3, 4, PolicyEvictOldest),
		twoTier(2, 0, 0, PolicyQuasiGeometric), // unlimited last tier
		twoTier(2, 0, 7, ""),                   // explicit k over unlimited tail
		{Tiers: []Tier{{Name: "ram", Capacity: 1}}},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []*Config{
		{},
		{Tiers: make([]Tier, MaxTiers+1)},
		{Tiers: []Tier{{Capacity: 0}, {Capacity: 1}}},    // unlimited non-last
		{Tiers: []Tier{{Capacity: 1, WriteCycles: -1}}},  // negative cost
		{Tiers: []Tier{{Capacity: 1, Corruption: 1}}},    // p = 1
		{Tiers: []Tier{{Capacity: 1}}, K: -1},            // negative bound
		{Tiers: []Tier{{Capacity: 2}}, K: 5},             // bound over capacity
		{Tiers: []Tier{{Capacity: 1}}, Policy: "rm -rf"}, // unknown policy
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigBoundAndLabel(t *testing.T) {
	if got := twoTier(1, 3, 0, "").Bound(); got != 4 {
		t.Errorf("derived bound = %d, want 4", got)
	}
	if got := twoTier(1, 3, 2, "").Bound(); got != 2 {
		t.Errorf("explicit bound = %d, want 2", got)
	}
	if got := twoTier(2, 0, 0, "").Bound(); got != 0 {
		t.Errorf("unlimited bound = %d, want 0", got)
	}
	if got := twoTier(1, 3, 4, PolicyQuasiGeometric).Label(); got != "k4/quasi-geometric" {
		t.Errorf("label = %q", got)
	}
}

func TestCanonicalJSONRoundTrips(t *testing.T) {
	c := twoTier(1, 3, 4, PolicyQuasiGeometric)
	b := c.CanonicalJSON()
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if string(back.CanonicalJSON()) != string(b) {
		t.Errorf("canonical JSON not stable: %s vs %s", back.CanonicalJSON(), b)
	}
	var nilCfg *Config
	if nilCfg.CanonicalJSON() != nil {
		t.Errorf("nil config canonical JSON not nil")
	}
}

// TestSetBoundInvariant: the retention bound holds at every step under
// both policies, through inserts, diverged inserts and truncations —
// the first half of the bounded-k property from the issue.
func TestSetBoundInvariant(t *testing.T) {
	for _, policy := range []string{PolicyEvictOldest, PolicyQuasiGeometric} {
		for _, k := range []int{1, 2, 3, 4, 7} {
			cfg := twoTier(1, k, k, policy)
			if k == 1 {
				cfg = twoTier(1, 1, 1, policy)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			var s Set
			s.Configure(cfg)
			r := rand.New(rand.NewSource(int64(k)))
			work := 0.0
			for i := 0; i < 500; i++ {
				work += 1 + r.Float64()
				s.Insert(work, r.Intn(5) == 0)
				if s.Len() > k {
					t.Fatalf("%s k=%d: set size %d exceeds bound after insert %d", policy, k, s.Len(), i)
				}
				if r.Intn(7) == 0 {
					limit := work * r.Float64()
					s.TruncateAfter(limit)
					for _, im := range s.Images() {
						if im.Work > limit {
							t.Fatalf("%s k=%d: image at %v survived truncation to %v", policy, k, im.Work, limit)
						}
					}
					work = limit
				}
			}
		}
	}
}

// TestTierOccupancyInvariant: no tier ever holds more images than its
// capacity, and tier assignment is monotone in recency (an older image
// never sits in a faster tier than a newer one at assignment time is
// not required — stickiness allows holes — but capacity never
// overflows).
func TestTierOccupancyInvariant(t *testing.T) {
	cfg := &Config{
		Tiers: []Tier{
			{Name: "ram", Capacity: 1},
			{Name: "nvram", Capacity: 2},
			{Name: "flash", Capacity: 4},
		},
		Policy: PolicyQuasiGeometric,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var s Set
	s.Configure(cfg)
	r := rand.New(rand.NewSource(42))
	work := 0.0
	check := func(step int) {
		var occ [MaxTiers]int
		for _, im := range s.Images() {
			occ[im.Tier]++
		}
		for ti, tier := range cfg.Tiers {
			if tier.Capacity > 0 && occ[ti] > tier.Capacity {
				t.Fatalf("step %d: tier %d holds %d images, capacity %d", step, ti, occ[ti], tier.Capacity)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		work += 1 + r.Float64()
		s.Insert(work, false)
		check(i)
		if r.Intn(5) == 0 {
			limit := work * r.Float64()
			s.TruncateAfter(limit)
			work = limit
			check(i)
		}
	}
}

// TestInsertWritesChargeable: Insert reports the fresh write plus every
// demotion, with valid indices and deepening tiers, so the engine can
// charge tier costs exactly once per physical copy.
func TestInsertWritesChargeable(t *testing.T) {
	cfg := twoTier(1, 3, 4, PolicyEvictOldest)
	var s Set
	s.Configure(cfg)
	totalWrites := 0
	for i := 0; i < 20; i++ {
		writes := s.Insert(float64(i+1), false)
		if writes&1 == 0 || s.WriteIndex(0) != s.Len()-1 || s.Images()[s.Len()-1].Tier != 0 {
			t.Fatalf("insert %d: writes %04b, want the newest image written into tier 0", i, writes)
		}
		if writes>>len(cfg.Tiers) != 0 {
			t.Fatalf("insert %d: writes %04b name a tier past the %d configured", i, writes, len(cfg.Tiers))
		}
		for ti := 0; ti < len(cfg.Tiers); ti++ {
			if writes&(1<<ti) == 0 {
				continue
			}
			w := s.WriteIndex(ti)
			if w < 0 || w >= s.Len() {
				t.Fatalf("insert %d: write index %d out of range", i, w)
			}
			if got := int(s.Images()[w].Tier); got != ti {
				t.Fatalf("insert %d: write tier %d disagrees with image tier %d", i, ti, got)
			}
			totalWrites++
		}
	}
	// 20 fresh writes plus at least one demotion once tier 0 overflowed.
	if totalWrites <= 20 {
		t.Errorf("total writes = %d, expected demotions beyond the 20 inserts", totalWrites)
	}
}

// TestEvictOldestWindow: the baseline policy retains exactly the k
// newest sequence numbers.
func TestEvictOldestWindow(t *testing.T) {
	cfg := twoTier(1, 2, 3, PolicyEvictOldest)
	var s Set
	s.Configure(cfg)
	for i := 0; i < 10; i++ {
		s.Insert(float64(i+1), false)
	}
	want := []uint64{8, 9, 10}
	imgs := s.Images()
	if len(imgs) != len(want) {
		t.Fatalf("retained %d images, want %d", len(imgs), len(want))
	}
	for i, im := range imgs {
		if im.Seq != want[i] {
			t.Errorf("retained[%d].Seq = %d, want %d", i, im.Seq, want[i])
		}
	}
}

// TestQuasiGeometricRetention pins the dyadic retention shape on the
// worked example from the package docs: after 17 stores with k = 4 the
// survivors are {4, 8, 16, 17} — geometrically spaced into the past.
func TestQuasiGeometricRetention(t *testing.T) {
	cfg := twoTier(1, 3, 4, PolicyQuasiGeometric)
	var s Set
	s.Configure(cfg)
	for i := 0; i < 17; i++ {
		s.Insert(float64(i+1), false)
	}
	want := []uint64{4, 8, 16, 17}
	imgs := s.Images()
	if len(imgs) != len(want) {
		t.Fatalf("retained %d images, want %d", len(imgs), len(want))
	}
	for i, im := range imgs {
		if im.Seq != want[i] {
			t.Errorf("retained[%d].Seq = %d, want %d", i, im.Seq, want[i])
		}
	}
}

// TestQuasiGeometricGapBound: the documented bound of the
// quasi-geometric policy — for every k >= 3 and any number of stores S,
// consecutive retained sequence numbers a < b satisfy b <= 2a + 1, i.e.
// the gap into the past at most doubles per retained image (max
// relative gap 2). This is the second half of the bounded-k property
// from the issue.
func TestQuasiGeometricGapBound(t *testing.T) {
	for _, k := range []int{3, 4, 5, 6, 8, 10} {
		cfg := twoTier(1, k-1, k, PolicyQuasiGeometric)
		var s Set
		s.Configure(cfg)
		for step := 1; step <= 5000; step++ {
			s.Insert(float64(step), false)
			imgs := s.Images()
			for i := 1; i < len(imgs); i++ {
				a, b := imgs[i-1].Seq, imgs[i].Seq
				if b > 2*a+1 {
					t.Fatalf("k=%d after %d stores: retained gap %d -> %d violates b <= 2a+1 (set %v)",
						k, step, a, b, seqs(imgs))
				}
			}
		}
	}
}

func seqs(imgs []Image) []uint64 {
	out := make([]uint64, len(imgs))
	for i, im := range imgs {
		out[i] = im.Seq
	}
	return out
}

// TestSetDeterminism: identical operation sequences produce identical
// sets — the policies consume no randomness.
func TestSetDeterminism(t *testing.T) {
	run := func() []Image {
		cfg := twoTier(2, 3, 5, PolicyQuasiGeometric)
		var s Set
		s.Configure(cfg)
		r := rand.New(rand.NewSource(7))
		work := 0.0
		for i := 0; i < 300; i++ {
			work += 1 + r.Float64()
			s.Insert(work, r.Intn(4) == 0)
			if r.Intn(6) == 0 {
				work = work * r.Float64()
				s.TruncateAfter(work)
			}
		}
		out := make([]Image, s.Len())
		copy(out, s.Images())
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestConfigureReuse: re-configuring with the same config clears the
// set; switching configs rebuilds the policy and prefix table.
func TestConfigureReuse(t *testing.T) {
	cfg := twoTier(1, 2, 3, PolicyEvictOldest)
	var s Set
	s.Configure(cfg)
	s.Insert(1, false)
	s.Configure(cfg)
	if s.Len() != 0 {
		t.Errorf("Configure did not clear the set")
	}
	s.Configure(nil)
	if s.Active() {
		t.Errorf("nil Configure left the set active")
	}
}

func TestStatsObserveDepth(t *testing.T) {
	var st Stats
	st.ObserveDepth(1)
	st.ObserveDepth(3)
	st.ObserveDepth(DepthBuckets + 5) // overflow bucket
	st.ObserveDepth(0)                // clamped to 1
	if st.Recoveries != 4 {
		t.Errorf("recoveries = %d, want 4", st.Recoveries)
	}
	if st.Depth[0] != 2 || st.Depth[2] != 1 || st.Depth[DepthBuckets-1] != 1 {
		t.Errorf("depth histogram = %v", st.Depth)
	}
}

func TestTierFromDeviceAndDefaultConfig(t *testing.T) {
	for _, k := range []int{0, 1, 2, 4, 8} {
		cfg := DefaultConfig(k)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig(%d) invalid: %v", k, err)
		}
		if k > 0 && cfg.Bound() != k {
			t.Errorf("DefaultConfig(%d).Bound() = %d", k, cfg.Bound())
		}
		for _, tier := range cfg.Tiers {
			if tier.WriteCycles <= 0 || tier.ReadCycles <= 0 {
				t.Errorf("DefaultConfig(%d) tier %s has non-positive device-derived costs: %+v", k, tier.Name, tier)
			}
		}
	}
}
