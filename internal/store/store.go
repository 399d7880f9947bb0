// Package store models tiered checkpoint storage with a bounded
// retained set of checkpoint images and an online maintenance policy.
//
// The paper treats stable storage as a free, infinite device: every
// CSCP overwrites "the" checkpoint and rollback is flat-cost. This
// package promotes the cost-model shims of internal/storage into a real
// subsystem: a run holds at most k checkpoint images spread over a
// small stack of tiers (RAM → NVRAM → flash/remote), each tier with a
// capacity in images and per-image write/read cycle costs derived from
// the storage.Device models. When the set is full, a policy decides
// which image to *keep* — evict-oldest as the baseline, and a
// Bringmann-style quasi-geometric spacing policy that retains a set of
// checkpoints whose distances into the past grow (at most)
// geometrically, so a deep rollback always finds a survivor within a
// bounded relative gap.
//
// Everything here is deterministic and allocation-light: the engine
// owns one Set per run, Insert returns the physical writes (insert +
// demotions) so the caller can charge tier costs and draw per-write
// corruption from its own rng stream, and nothing in this package
// consumes randomness.
package store

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/storage"
)

// MaxTiers bounds the tier stack. Telemetry exposes per-tier families
// with the tier index embedded in the metric name, so the bound is part
// of the metrics contract.
const MaxTiers = 4

// Tier is one storage level. Costs are cycles at minimum speed, the
// same unit as checkpoint.Costs; the engine divides by the current
// frequency when charging wall time.
type Tier struct {
	// Name labels the tier in docs and sweeps ("nvram", "flash", ...).
	Name string `json:"name"`
	// Capacity is the number of images the tier holds; <= 0 means
	// unlimited and is only allowed on the last tier.
	Capacity int `json:"capacity"`
	// WriteCycles is charged per image written into this tier (both
	// fresh inserts and demotions from the tier above).
	WriteCycles float64 `json:"write_cycles"`
	// ReadCycles is charged per restore attempt from this tier.
	ReadCycles float64 `json:"read_cycles"`
	// Corruption is the probability that a write into this tier
	// silently corrupts the image; the damage surfaces only when a
	// rollback tries to restore it, forcing the cascade one image
	// older. Zero models perfect media.
	Corruption float64 `json:"corruption,omitempty"`
}

// Config is the JSON-serialisable store description carried in
// sim.Params, experiment specs and cluster job specs. A nil *Config
// anywhere means "no store modelled" — the engine's historical
// semantics, bit for bit.
type Config struct {
	// Tiers is the storage stack, fastest first. 1..MaxTiers entries.
	Tiers []Tier `json:"tiers"`
	// K bounds the total retained images across all tiers. 0 derives
	// the bound from the tier capacities (unbounded when the last tier
	// is unlimited).
	K int `json:"k,omitempty"`
	// Policy names the maintenance policy: "evict-oldest" (default) or
	// "quasi-geometric".
	Policy string `json:"policy,omitempty"`
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if len(c.Tiers) == 0 {
		return fmt.Errorf("store: config needs at least one tier")
	}
	if len(c.Tiers) > MaxTiers {
		return fmt.Errorf("store: %d tiers exceeds the limit of %d", len(c.Tiers), MaxTiers)
	}
	total := 0
	unlimited := false
	for i, t := range c.Tiers {
		if t.Capacity <= 0 {
			if i != len(c.Tiers)-1 {
				return fmt.Errorf("store: tier %d (%s) has unlimited capacity but is not the last tier", i, t.Name)
			}
			unlimited = true
		} else {
			total += t.Capacity
		}
		for _, v := range []float64{t.WriteCycles, t.ReadCycles} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("store: tier %d (%s) has invalid cycle cost %v", i, t.Name, v)
			}
		}
		if t.Corruption < 0 || t.Corruption >= 1 || math.IsNaN(t.Corruption) {
			return fmt.Errorf("store: tier %d (%s) has corruption probability %v outside [0,1)", i, t.Name, t.Corruption)
		}
	}
	if c.K < 0 {
		return fmt.Errorf("store: negative retention bound k=%d", c.K)
	}
	if c.K > 0 && !unlimited && c.K > total {
		return fmt.Errorf("store: retention bound k=%d exceeds total tier capacity %d", c.K, total)
	}
	if _, err := policyByName(c.Policy); err != nil {
		return err
	}
	return nil
}

// Bound returns the effective retention bound: K when set, otherwise
// the summed tier capacities; 0 means unbounded (unlimited last tier
// and no explicit K).
func (c *Config) Bound() int {
	if c.K > 0 {
		return c.K
	}
	total := 0
	for _, t := range c.Tiers {
		if t.Capacity <= 0 {
			return 0
		}
		total += t.Capacity
	}
	return total
}

// Label is a compact human-readable tag used in scheme names and sweep
// rows, e.g. "k4/quasi-geometric".
func (c *Config) Label() string {
	pol := c.Policy
	if pol == "" {
		pol = PolicyEvictOldest
	}
	if b := c.Bound(); b > 0 {
		return fmt.Sprintf("k%d/%s", b, pol)
	}
	return "k∞/" + pol
}

// CanonicalJSON renders the config deterministically (struct field
// order) for content addressing — the cluster job key must change when
// the store config does, because the result bits do.
func (c *Config) CanonicalJSON() []byte {
	if c == nil {
		return nil
	}
	b, err := json.Marshal(c)
	if err != nil {
		// Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("store: marshal config: %v", err))
	}
	return b
}

// TierFromDevice derives a tier's per-image costs from a storage device
// model at the given image size — the bridge from the byte-granular
// Device cost models to the image-granular store.
func TierFromDevice(name string, d storage.Device, imageBytes, capacity int, corruption float64) Tier {
	return Tier{
		Name:        name,
		Capacity:    capacity,
		WriteCycles: d.WriteCycles(imageBytes),
		ReadCycles:  d.ReadCycles(imageBytes),
		Corruption:  corruption,
	}
}

// DefaultConfig is the reference two-tier stack used by the extension
// table and the capacity sweep: a small NVRAM tier in front of flash,
// both costed from the SCP platform's device models at its checkpoint
// image size, retention bounded to k under the quasi-geometric policy.
func DefaultConfig(k int) *Config {
	fast := storage.SCPPlatform() // NVRAM device
	slow := storage.CCPPlatform() // page-granular flash device
	nvCap := 2
	if k > 0 && k < nvCap {
		nvCap = k
	}
	flashCap := k - nvCap
	if k <= 0 {
		flashCap = 0 // unlimited last tier
	} else if flashCap == 0 {
		// A bound small enough to fit NVRAM alone still needs a legal
		// last tier; give flash one slot and let K bite first.
		flashCap = 1
	}
	kk := k
	if kk < 0 {
		kk = 0
	}
	return &Config{
		Tiers: []Tier{
			TierFromDevice("nvram", fast.Device, fast.StateBytes, nvCap, 0),
			TierFromDevice("flash", slow.Device, slow.StateBytes, flashCap, 0),
		},
		K:      kk,
		Policy: PolicyQuasiGeometric,
	}
}
