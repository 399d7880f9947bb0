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

// FuzzUnitResult feeds arbitrary bytes through the coordinator's unit
// reply decoder. It must never panic, must reject any body over the
// size bound, and every reply it accepts must re-marshal to bytes that
// decode to an equal UnitResult. A small bound keeps the oversize case
// within the fuzzer's reach.
func FuzzUnitResult(f *testing.F) {
	const limit = 512
	res := UnitResult{CellSeed: 0xdeadbeef, Start: 200, End: 400, Data: []byte{1, 2, 3, 250}}
	res.Auth = signUnit([]byte("k"), res.CellSeed, res.Start, res.End, res.Data)
	compact, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	indented = append(indented, '\n') // what an indenting revision's worker writes
	for _, blob := range [][]byte{compact, indented} {
		got, err := decodeUnitResult(bytes.NewReader(blob), limit)
		if err != nil || !reflect.DeepEqual(*got, res) {
			f.Fatalf("valid reply %s decoded to %+v, %v", blob, got, err)
		}
	}
	f.Add(compact)
	f.Add(indented)
	f.Add(bytes.Repeat([]byte(" "), limit+1))
	f.Add([]byte(`{"cell_seed":1,"start":0,"end":8,"data":"AAEC"} trailing`))
	f.Add([]byte(`{"data":"not base64!"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeUnitResult(bytes.NewReader(body), limit)
		if len(body) > limit && err == nil {
			t.Fatalf("accepted a %d-byte reply over the %d-byte bound", len(body), limit)
		}
		if err != nil {
			return
		}
		blob, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("accepted reply does not re-marshal: %v", err)
		}
		again, err := decodeUnitResult(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("re-marshalled reply rejected: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the reply:\n got %+v\nwant %+v", again, got)
		}
	})
}
