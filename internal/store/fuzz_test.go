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
