package repro

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current engine")

// goldenCase pins one (scheme, grid point, seed) trajectory of the
// simulation engine: the full Result plus a hash of the exact trace event
// sequence. The reference file was generated from the seed engine before
// the imperfect-fault-tolerance layer was added; the test guards that the
// extended engine reproduces the seed trajectories bit-for-bit when every
// imperfection knob sits at its ideal default.
type goldenCase struct {
	Scheme string  `json:"scheme"`
	U      float64 `json:"u"`
	Lambda float64 `json:"lambda"`
	Seed   uint64  `json:"seed"`

	Completed  bool   `json:"completed"`
	Reason     string `json:"reason"`
	TimeBits   uint64 `json:"time_bits"`
	EnergyBits uint64 `json:"energy_bits"`
	CyclesBits uint64 `json:"cycles_bits"`
	Faults     int    `json:"faults"`
	Detections int    `json:"detections"`
	CSCPs      int    `json:"cscps"`
	Subs       int    `json:"subs"`
	Switches   int    `json:"switches"`
	TraceHash  uint64 `json:"trace_hash"`
	TraceLen   int    `json:"trace_len"`

	// The degraded-path outcomes; always zero on the ideal path, so
	// omitempty keeps golden_sim.json's encoding unchanged.
	MissedDetections int  `json:"missed_detections,omitempty"`
	CorruptRestores  int  `json:"corrupt_restores,omitempty"`
	Restarts         int  `json:"restarts,omitempty"`
	SilentCorruption bool `json:"silent_corruption,omitempty"`
}

func goldenSchemes() []sim.Scheme {
	return []sim.Scheme{
		core.NewPoissonScheme(1),
		core.NewKFTScheme(1),
		core.NewADTDVS(),
		core.NewAdaptDVSSCP(),
		core.NewAdaptDVSCCP(),
	}
}

// traceHash digests the trace event sequence exactly: kind, float bits of
// time and value, and checkpoint flavour all participate.
func traceHash(tr *sim.Trace) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for _, ev := range tr.Events {
		mix(uint64(ev.Kind))
		mix(math.Float64bits(ev.Time))
		mix(uint64(ev.Checkpoint))
		mix(math.Float64bits(ev.Value))
	}
	return h
}

// goldenGrid spans both cost settings and a fault-free point so every
// engine path (SCP flavour, CCP flavour, DVS recovery, zero-λ) is pinned.
func goldenGrid() []struct{ U, Lambda float64 } {
	return []struct{ U, Lambda float64 }{
		{0.78, 0.0014},
		{0.82, 0.0016},
		{0.78, 0},
	}
}

func runGoldenCase(t *testing.T, s sim.Scheme, u, lambda float64, seed uint64, imp *fault.Imperfection, st *store.Config) goldenCase {
	t.Helper()
	tk, err := TaskFromUtilization("golden", u, 1, 10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	costs := SCPCosts()
	if s.Name() == "A_D_C" {
		costs = CCPCosts()
	}
	tr := &sim.Trace{}
	p := sim.Params{Task: tk, Costs: costs, Lambda: lambda, Trace: tr, Imperfect: imp, Store: st}
	res := s.Run(p, rng.New(seed))
	return goldenCase{
		Scheme: s.Name(), U: u, Lambda: lambda, Seed: seed,
		Completed: res.Completed, Reason: string(res.Reason),
		TimeBits:   math.Float64bits(res.Time),
		EnergyBits: math.Float64bits(res.Energy),
		CyclesBits: math.Float64bits(res.Cycles),
		Faults:     res.Faults, Detections: res.Detections,
		CSCPs: res.CSCPs, Subs: res.SubCheckpoints, Switches: res.Switches,
		TraceHash: traceHash(tr), TraceLen: len(tr.Events),

		MissedDetections: res.MissedDetections,
		CorruptRestores:  res.CorruptRestores,
		Restarts:         res.Restarts,
		SilentCorruption: res.SilentCorruption,
	}
}

const goldenPath = "testdata/golden_sim.json"

// TestGoldenEquivalence replays the recorded seed-engine trajectories and
// demands bit-identical results from the current engine, both with the
// imperfection layer absent (nil) and with every knob explicitly at its
// ideal value — the default-equivalence guarantee of the imperfect-FT
// extension.
func TestGoldenEquivalence(t *testing.T) {
	var cases []goldenCase
	for _, s := range goldenSchemes() {
		for _, g := range goldenGrid() {
			for seed := uint64(1); seed <= 4; seed++ {
				cases = append(cases, runGoldenCase(t, s, g.U, g.Lambda, seed, nil, nil))
			}
		}
	}

	want := checkGoldenFile(t, goldenPath, cases)
	if want == nil {
		return
	}
	for i, w := range want {
		if cases[i] != w {
			t.Errorf("nil-imperfection trajectory diverged from seed engine:\n got %+v\nwant %+v", cases[i], w)
		}
	}

	// Explicit ideal knobs must follow the identical code path: same
	// trajectories, same trace hashes, zero extra randomness consumed.
	ideal := fault.IdealFT()
	i := 0
	for _, s := range goldenSchemes() {
		for _, g := range goldenGrid() {
			for seed := uint64(1); seed <= 4; seed++ {
				got := runGoldenCase(t, s, g.U, g.Lambda, seed, &ideal, nil)
				if got != want[i] {
					t.Errorf("explicit-ideal trajectory diverged from seed engine:\n got %+v\nwant %+v", got, want[i])
				}
				i++
			}
		}
	}
}

// checkGoldenFile rewrites path from cases under -update and returns
// nil; otherwise it loads the recorded cases and checks their count.
func checkGoldenFile(t *testing.T, path string, cases []goldenCase) []goldenCase {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(cases), path)
		return nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file %s has %d cases, engine produced %d", path, len(want), len(cases))
	}
	return want
}

const goldenDegradedPath = "testdata/golden_degraded.json"

// TestGoldenDegradedEquivalence pins the degraded engine paths that
// golden_sim.json cannot reach: the imperfect-FT model without a store,
// the same model over a bounded tiered store, and the ideal model over
// a bounded store. The traces carry the restore walk's EvBadStore,
// EvRestart and EvMissedDetect events, so the walk order is pinned too.
func TestGoldenDegradedEquivalence(t *testing.T) {
	imp := experiment.DefaultImperfection()
	models := []struct {
		name string
		imp  *fault.Imperfection
		st   *store.Config
	}{
		{"imperfect", &imp, nil},
		{"imperfect+store(4)", &imp, store.DefaultConfig(4)},
		{"ideal+store(2)", nil, store.DefaultConfig(2)},
	}
	var cases []goldenCase
	var names []string
	for _, m := range models {
		for _, s := range goldenSchemes() {
			for _, g := range goldenGrid() {
				if g.Lambda == 0 {
					continue
				}
				for seed := uint64(1); seed <= 2; seed++ {
					cases = append(cases, runGoldenCase(t, s, g.U, g.Lambda, seed, m.imp, m.st))
					names = append(names, m.name)
				}
			}
		}
	}
	want := checkGoldenFile(t, goldenDegradedPath, cases)
	for i, w := range want {
		if cases[i] != w {
			t.Errorf("%s trajectory diverged from the recorded engine:\n got %+v\nwant %+v", names[i], cases[i], w)
		}
	}
}

// TestGoldenKernelReplay pins the batch kernels to the committed
// trajectories rather than only to this revision's scalar engine:
// every recorded case of both golden files is replayed as a one-repetition
// batch through sim.RunBatch — seeded like runGoldenCase, untraced, with a
// Wrong column — and must reproduce the recorded completion, time and
// energy bits, fault and switch counts and silent-corruption outcome.
// The degraded cases run in the kernels' live-draw mode.
func TestGoldenKernelReplay(t *testing.T) {
	imp := experiment.DefaultImperfection()
	models := []struct {
		path string
		imp  *fault.Imperfection
		st   *store.Config
	}{
		{goldenPath, nil, nil},
		{goldenDegradedPath, &imp, nil},
		{goldenDegradedPath, &imp, store.DefaultConfig(4)},
		{goldenDegradedPath, nil, store.DefaultConfig(2)},
	}
	want := map[string][]goldenCase{}
	for _, path := range []string{goldenPath, goldenDegradedPath} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file: %v", err)
		}
		var cases []goldenCase
		if err := json.Unmarshal(blob, &cases); err != nil {
			t.Fatal(err)
		}
		want[path] = cases
	}
	next := map[string]int{}
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	for _, m := range models {
		for _, s := range goldenSchemes() {
			for _, g := range goldenGrid() {
				if g.Lambda == 0 && m.path == goldenDegradedPath {
					continue
				}
				seeds := 4
				if m.path == goldenDegradedPath {
					seeds = 2
				}
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					i := next[m.path]
					next[m.path]++
					if i >= len(want[m.path]) {
						t.Fatalf("%s has only %d cases", m.path, len(want[m.path]))
					}
					w := want[m.path][i]
					if w.Scheme != s.Name() || w.U != g.U || w.Lambda != g.Lambda || w.Seed != seed {
						t.Fatalf("%s case %d is %s U=%v λ=%v seed %d, want %s U=%v λ=%v seed %d",
							m.path, i, w.Scheme, w.U, w.Lambda, w.Seed, s.Name(), g.U, g.Lambda, seed)
					}
					tk, err := TaskFromUtilization("golden", g.U, 1, 10000, 5)
					if err != nil {
						t.Fatal(err)
					}
					costs := SCPCosts()
					if s.Name() == "A_D_C" {
						costs = CCPCosts()
					}
					p := sim.Params{Task: tk, Costs: costs, Lambda: g.Lambda, Imperfect: m.imp, Store: m.st}
					bctx.GrowWrong(1)
					if !sim.RunBatch(rctx, bctx, s, p, []uint64{seed}) {
						t.Fatalf("%s case %d: the kernel refused the batch", m.path, i)
					}
					got := goldenCase{
						Completed:        bctx.Completed[0],
						TimeBits:         math.Float64bits(bctx.Time[0]),
						EnergyBits:       math.Float64bits(bctx.Energy[0]),
						Faults:           int(bctx.Faults[0]),
						Switches:         int(bctx.Switches[0]),
						SilentCorruption: bctx.Wrong[0],
					}
					if got.Completed != w.Completed || got.TimeBits != w.TimeBits || got.EnergyBits != w.EnergyBits ||
						got.Faults != w.Faults || got.Switches != w.Switches || got.SilentCorruption != w.SilentCorruption {
						t.Errorf("%s case %d (%s U=%v λ=%v seed %d): kernel %+v, recorded %+v",
							m.path, i, w.Scheme, w.U, w.Lambda, w.Seed, got, w)
					}
				}
			}
		}
	}
	for path, n := range next {
		if n != len(want[path]) {
			t.Errorf("%s: replayed %d of %d cases", path, n, len(want[path]))
		}
	}
}

// TestGoldenFileFresh fails loudly if the golden file predates a grid or
// scheme-set change, rather than silently comparing misaligned cases.
func TestGoldenFileFresh(t *testing.T) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skip("golden file not generated yet")
	}
	var want []goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	wantN := len(goldenSchemes()) * len(goldenGrid()) * 4
	if len(want) != wantN {
		t.Fatalf("golden file holds %d cases, current grid needs %d — regenerate with -update", len(want), wantN)
	}
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Scheme] = true
	}
	for _, s := range goldenSchemes() {
		if !seen[s.Name()] {
			t.Errorf("golden file missing scheme %s", s.Name())
		}
	}
}
