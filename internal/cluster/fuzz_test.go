package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/experiment"
	"repro/internal/store"
)

// FuzzUnitRequest feeds arbitrary bytes through the worker's unit
// decoder and validator without executing anything. It must never
// panic; every request it accepts must address a real unit (a scheme
// column and grid point of the table, a non-empty rep range within the
// cap) and re-encode to a request the decoder accepts unchanged.
func FuzzUnitRequest(f *testing.F) {
	const version = "fuzz-build"
	tspec, err := experiment.TableByID("2b")
	if err != nil {
		f.Fatal(err)
	}
	valid := UnitRequest{
		Proto: ProtocolVersion, Version: version, Table: "2b", Col: 1,
		U: tspec.Us[0], Lambda: tspec.Lambdas[len(tspec.Lambdas)-1], Seed: 7, Start: 0, End: 16,
	}
	seed := func(mut func(*UnitRequest)) {
		r := valid
		mut(&r)
		blob, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	seed(func(*UnitRequest) {})
	seed(func(r *UnitRequest) { r.Store = store.DefaultConfig(4) })
	seed(func(r *UnitRequest) { r.Store = &store.Config{} })
	seed(func(r *UnitRequest) { r.Version = "other-build" })
	seed(func(r *UnitRequest) { r.Col = 99 })
	seed(func(r *UnitRequest) { r.U = 0.5 })
	seed(func(r *UnitRequest) { r.Start, r.End = 8, 8 })
	seed(func(r *UnitRequest) { r.End = maxUnitEnd + 1 })
	seed(func(r *UnitRequest) { r.Table = "9z" })
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"proto":1,"version":"fuzz-build","table":"1a","col":-1,"start":-5,"end":3}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, spec, cellSeed, err := decodeUnit(bytes.NewReader(data), version)
		if err != nil {
			return
		}
		schemes := spec.Schemes()
		if req.Col < 0 || req.Col >= len(schemes) {
			t.Fatalf("accepted column %d of %d", req.Col, len(schemes))
		}
		if !slices.Contains(spec.Us, req.U) || !slices.Contains(spec.Lambdas, req.Lambda) {
			t.Fatalf("accepted (u %v, λ %v) outside table %s", req.U, req.Lambda, spec.ID)
		}
		if req.Start < 0 || req.End <= req.Start || req.End > maxUnitEnd {
			t.Fatalf("accepted rep range [%d,%d)", req.Start, req.End)
		}
		if spec.Store != req.Store {
			t.Fatal("validated spec does not carry the request's store config")
		}
		if want := experiment.CellSeed(req.Seed, spec.ID, req.U, req.Lambda, schemes[req.Col].Name()); cellSeed != want {
			t.Fatalf("cell seed %x, want %x", cellSeed, want)
		}

		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, _, _, err := decodeUnit(bytes.NewReader(blob), version)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}
