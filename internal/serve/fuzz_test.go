package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the submit path's spec
// handling — the strict decode, withDefaults and Validate — which is
// the one job decoder both simd roles expose. It must never panic, and
// every spec it accepts must re-encode and re-decode to an equal spec
// with an equal JobKey, so the journal and the result cache see the
// job the client sent.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"kind":"grid","table":"1a","reps":2000,"seed":2006,"deadline_ms":60000}`,
		`{"kind":"grid","table":"2b","reps":40,"seed":9,"shard_size":16,"store":{"tiers":[{"name":"nvram","capacity":2,"write_cycles":5,"read_cycles":3},{"name":"flash","capacity":3,"write_cycles":10,"read_cycles":8}],"k":5,"policy":"quasi-geometric"}}`,
		`{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"k":5,"seed":4}`,
		`{"kind":"single","scheme":"A_D_C","setting":"ccp","u":0.92,"lambda":1e-4,"seed":1,"store":{"tiers":[{"name":"t","capacity":0}]}}`,
		`{"kind":"mission","scheme":"A_D_S","u":0.78,"lambda":0.0014,"frames":200,"battery":3e8,"seed":11,"max_retries":-1}`,
		`{"kind":"grid","table":"1a","reps":-1}`,
		`{"kind":"grid","table":"1a","bogus":1}`,
		`{"kind":"warp"}`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec = spec.withDefaults()
		if spec.Validate() != nil {
			return
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
		if again.withDefaults() != again {
			t.Fatalf("withDefaults not idempotent on %+v", again)
		}
		if JobKey(again) != JobKey(spec) {
			t.Fatalf("round trip changed the JobKey of %+v", spec)
		}
	})
}
