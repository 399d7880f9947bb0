package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// FuzzUnitRequest feeds arbitrary bytes through the worker's request
// decoder and validator without executing anything. It must never
// panic; every request it accepts must address only real units (a
// scheme column and grid point of the table, a non-empty rep range
// within the cap, for the first unit and every entry of More) and
// re-encode to a request the decoder accepts unchanged.
func FuzzUnitRequest(f *testing.F) {
	const version = "fuzz-build"
	tspec, err := experiment.TableByID("2b")
	if err != nil {
		f.Fatal(err)
	}
	first := UnitAddr{Col: 1, U: tspec.Us[0], Lambda: tspec.Lambdas[len(tspec.Lambdas)-1], Start: 0, End: 16}
	next := UnitAddr{Col: 0, U: tspec.Us[1], Lambda: tspec.Lambdas[0], Start: 16, End: 40}
	valid := UnitRequest{
		Proto: ProtocolVersion, Version: version, Table: "2b",
		UnitAddr: first, Seed: 7, More: []UnitAddr{next},
	}
	seed := func(mut func(*UnitRequest)) {
		r := valid
		r.More = slices.Clone(valid.More)
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
	f.Add([]byte(`{"proto":2,"version":"fuzz-build","table":"1a","col":-1,"start":-5,"end":3}`))
	// The multi-unit shapes: an explicitly empty More, duplicate ranges,
	// a bad column or an out-of-range end in a later entry, a version 1
	// request, and a body at the size limit.
	f.Add([]byte(fmt.Sprintf(`{"proto":2,"version":"fuzz-build","table":"2b","col":1,"u":%v,"lambda":%v,"seed":7,"start":0,"end":16,"more":[]}`, first.U, first.Lambda)))
	seed(func(r *UnitRequest) { r.More = []UnitAddr{first, first, r.UnitAddr} })
	seed(func(r *UnitRequest) {
		r.More = append(r.More, next, UnitAddr{Col: 7, U: next.U, Lambda: next.Lambda, Start: 0, End: 1})
	})
	seed(func(r *UnitRequest) {
		r.More = append(r.More, UnitAddr{Col: 0, U: next.U, Lambda: next.Lambda, Start: 40, End: maxUnitEnd + 1})
	})
	seed(func(r *UnitRequest) { r.Proto = 1; r.More = nil })
	atLimit := valid
	for i := 0; i < 12_000; i++ {
		atLimit.More = append(atLimit.More, UnitAddr{Col: i % 2, U: first.U, Lambda: first.Lambda, Start: i, End: i + 1})
	}
	blob, err := json.Marshal(atLimit)
	if err != nil {
		f.Fatal(err)
	}
	if len(blob) > maxUnitRequest {
		f.Fatalf("limit seed is %d bytes, over the %d-byte bound", len(blob), maxUnitRequest)
	}
	f.Add(append(blob, bytes.Repeat([]byte(" "), maxUnitRequest-len(blob))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, spec, units, cellSeeds, err := decodeUnits(bytes.NewReader(data), version)
		if err != nil {
			return
		}
		schemes := spec.Schemes()
		addrs := req.Units()
		if len(units) != len(addrs) || len(cellSeeds) != len(addrs) {
			t.Fatalf("%d units and %d seeds for %d addresses", len(units), len(cellSeeds), len(addrs))
		}
		for i, a := range addrs {
			if a.Col < 0 || a.Col >= len(schemes) {
				t.Fatalf("unit %d: accepted column %d of %d", i, a.Col, len(schemes))
			}
			if !slices.Contains(spec.Us, a.U) || !slices.Contains(spec.Lambdas, a.Lambda) {
				t.Fatalf("unit %d: accepted (u %v, λ %v) outside table %s", i, a.U, a.Lambda, spec.ID)
			}
			if a.Start < 0 || a.End <= a.Start || a.End > maxUnitEnd {
				t.Fatalf("unit %d: accepted rep range [%d,%d)", i, a.Start, a.End)
			}
			if units[i] != experiment.Unit(a) {
				t.Fatalf("unit %d: executes %+v for address %+v", i, units[i], a)
			}
			if want := experiment.CellSeed(req.Seed, spec.ID, a.U, a.Lambda, schemes[a.Col].Name()); cellSeeds[i] != want {
				t.Fatalf("unit %d: cell seed %x, want %x", i, cellSeeds[i], want)
			}
		}
		if spec.Store != req.Store {
			t.Fatal("validated spec does not carry the request's store config")
		}

		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if len(blob) > maxUnitRequest {
			return // canonical numbers can be longer than the fuzzed ones
		}
		again, _, _, _, err := decodeUnits(bytes.NewReader(blob), version)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, blob)
		}
		if len(req.More) == 0 {
			req.More = nil // an empty More is omitted on the wire
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzUnitResult feeds arbitrary bytes through the coordinator's reply
// decoder and then through banking, as the reply to a two-unit
// dispatch. Decoding must never panic, must reject any body over the
// size bound, and every reply it accepts must re-marshal to bytes that
// decode to equal results. Banking must settle both units: each either
// banks from the authentic, valid result at its own position or backs
// off for re-dispatch, and the merged reps are exactly the banked
// units' ranges. A small bound keeps the oversize case within the
// fuzzer's reach.
func FuzzUnitResult(f *testing.F) {
	const limit = 2048
	key := []byte("k")
	tspec, err := experiment.TableByID("2b")
	if err != nil {
		f.Fatal(err)
	}
	const seed = 7
	addrs := []UnitAddr{
		{Col: 0, U: tspec.Us[0], Lambda: tspec.Lambdas[0], Start: 0, End: 4},
		{Col: 0, U: tspec.Us[0], Lambda: tspec.Lambdas[0], Start: 4, End: 8},
	}
	cellSeed := experiment.CellSeed(seed, tspec.ID, addrs[0].U, addrs[0].Lambda, tspec.Schemes()[0].Name())
	var valid []UnitResult
	units := []experiment.Unit{experiment.Unit(addrs[0]), experiment.Unit(addrs[1])}
	if err := experiment.ExecUnits(context.Background(), tspec, seed, units, func(i int, data []byte) {
		res := UnitResult{CellSeed: cellSeed, Start: addrs[i].Start, End: addrs[i].End, Data: data}
		res.Auth = signUnit(key, res.CellSeed, res.Start, res.End, res.Data)
		valid = append(valid, res)
	}); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(valid, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	indented = append(indented, '\n') // the same grammar, so it decodes too
	for _, blob := range [][]byte{compact, indented} {
		got, err := decodeUnitResults(bytes.NewReader(blob), limit)
		if err != nil || !reflect.DeepEqual(got, valid) {
			f.Fatalf("valid reply %s decoded to %+v, %v", blob, got, err)
		}
	}
	marshal := func(res []UnitResult) []byte {
		blob, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	// settle banks got as the reply to the two-unit dispatch on a fresh
	// attempt, checks that every unit settled, and returns how many
	// banked.
	settle := func(t testing.TB, got []UnitResult) int {
		t.Helper()
		c := &Coordinator{cfg: Config{Key: key}.withDefaults()}
		c.initTelemetry(telemetry.NewRegistry())
		a := &attempt{c: c, cells: []*cellAgg{{seed: cellSeed}}, outstanding: 1}
		idxs := make([]int, len(addrs))
		for i, ad := range addrs {
			a.units = append(a.units, &unitState{addr: ad, inflight: 1})
			idxs[i] = i
		}
		n := a.handleOutcome(dispatchOutcome{idxs: idxs, worker: &workerState{}, res: got})
		banked, reps := 0, 0
		for k, u := range a.units {
			if u.inflight != 0 {
				t.Fatalf("unit %d still has %d dispatches in flight", k, u.inflight)
			}
			if !u.banked {
				if u.attempts != 1 {
					t.Fatalf("unbanked unit %d was not backed off (attempts %d)", k, u.attempts)
				}
				continue
			}
			if k >= len(got) || !reflect.DeepEqual(got[k], valid[k]) {
				t.Fatalf("unit %d banked from a result other than its own", k)
			}
			banked++
			reps += u.addr.End - u.addr.Start
		}
		if n != banked || a.outstanding != 0 {
			t.Fatalf("handleOutcome banked %d, units show %d; %d outstanding", n, banked, a.outstanding)
		}
		if got := c.met.repsMerged.Value(); got != int64(reps) {
			t.Fatalf("merged %d reps for %d banked", got, reps)
		}
		return n
	}
	for _, tc := range []struct {
		name string
		res  []UnitResult
		want int
	}{
		{"valid", valid, 2},
		{"one short", valid[:1], 1},
		{"one too many", append(slices.Clone(valid), valid[0]), 2},
		{"misaligned", []UnitResult{valid[1], valid[0]}, 0},
		{"first corrupted", []UnitResult{{CellSeed: valid[0].CellSeed, Start: 0, End: 4, Data: valid[0].Data[1:], Auth: valid[0].Auth}, valid[1]}, 1},
		{"none", nil, 0},
	} {
		if got := settle(f, tc.res); got != tc.want {
			f.Fatalf("%s reply banked %d units, want %d", tc.name, got, tc.want)
		}
	}
	f.Add(compact)
	f.Add(indented)
	f.Add(bytes.Repeat([]byte(" "), limit+1))
	f.Add([]byte(`[{"cell_seed":1,"start":0,"end":8,"data":"AAEC"}] trailing`))
	f.Add([]byte(`[{"data":"not base64!"}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[`))
	f.Add([]byte(`[]`))                                              // zero results
	f.Add(marshal(valid[:1]))                                        // one short
	f.Add(marshal(append(slices.Clone(valid), valid[0])))            // one too many
	f.Add(marshal([]UnitResult{valid[1], valid[0]}))                 // misaligned
	f.Add(compact[:len(compact)/2])                                  // truncated
	f.Add([]byte(`{"cell_seed":1,"start":0,"end":8,"data":"AAEC"}`)) // a lone object

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeUnitResults(bytes.NewReader(body), limit)
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
		again, err := decodeUnitResults(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("re-marshalled reply rejected: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the reply:\n got %+v\nwant %+v", again, got)
		}

		settle(t, got)
	})
}
