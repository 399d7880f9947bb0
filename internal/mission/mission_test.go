package mission

import (
	"math"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

func frame(t *testing.T, u, lambda float64) sim.Params {
	t.Helper()
	tk, err := task.FromUtilization("frame", u, 1, 10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Params{Task: tk, Costs: checkpoint.SCPSetting(), Lambda: lambda}
}

func TestMissionRunsToHorizon(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0005),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e9,
		MaxFrames:       50,
	}
	rep, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != EndHorizon || rep.Frames != 50 {
		t.Fatalf("mission = %+v", rep)
	}
	if rep.EnergyUsed <= 0 || rep.FinalCharge >= 1e9 {
		t.Fatalf("energy accounting wrong: %+v", rep)
	}
	if rep.FrameEnergy.Trials != 50 {
		t.Fatalf("frame stats trials = %d", rep.FrameEnergy.Trials)
	}
}

func TestMissionBatteryFlat(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0005),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 2e5, // a handful of frames at ~5e4 each
		MaxFrames:       1000,
	}
	rep, err := Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != EndBatteryFlat {
		t.Fatalf("reason = %q, want battery-flat", rep.Reason)
	}
	if rep.Frames >= 1000 || rep.Frames < 2 {
		t.Fatalf("frames = %d", rep.Frames)
	}
}

func TestMissionHarvestExtendsLife(t *testing.T) {
	base := Config{
		Frame:           frame(t, 0.78, 0.0005),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 5e5,
		MaxFrames:       500,
	}
	dark, err := Run(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	lit := base
	lit.Harvest = battery.Source{PerFrame: 4e4, DutyCycle: 1}
	sunny, err := Run(lit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(sunny.Frames > dark.Frames) {
		t.Fatalf("harvest did not extend mission: %d vs %d", sunny.Frames, dark.Frames)
	}
}

func TestMissionAbortOnMiss(t *testing.T) {
	// A fixed-speed baseline at high λ misses quickly.
	cfg := Config{
		Frame:           frame(t, 0.80, 0.0014),
		Scheme:          core.NewPoissonScheme(1),
		BatteryCapacity: 1e9,
		MaxFrames:       500,
		AbortOnMiss:     true,
	}
	rep, err := Run(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != EndDeadlineMiss {
		t.Fatalf("reason = %q, want deadline-miss", rep.Reason)
	}
	if rep.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (aborted at first)", rep.Misses)
	}
}

func TestMissionSoftMissesCounted(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.80, 0.0014),
		Scheme:          core.NewPoissonScheme(1),
		BatteryCapacity: 1e10,
		MaxFrames:       100,
	}
	rep, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != EndHorizon {
		t.Fatalf("reason = %q", rep.Reason)
	}
	if rep.Misses < 50 {
		t.Fatalf("misses = %d, expected most frames to miss at U=0.80/λ=0.0014", rep.Misses)
	}
}

func TestMissionDeterministic(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.78, 0.001),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e8,
		MaxFrames:       100,
	}
	a, _ := Run(cfg, 9)
	b, _ := Run(cfg, 9)
	if a != b {
		t.Fatal("mission not deterministic")
	}
}

func TestCompareOrdersSchemes(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0014),
		BatteryCapacity: 5e6,
		MaxFrames:       10000,
	}
	reports, err := Compare(cfg, []sim.Scheme{
		core.NewPoissonScheme(2), // always fast: hungry
		core.NewAdaptDVSSCP(),    // paper scheme: frugal
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Both end battery-flat, but the paper scheme flies more frames.
	if !(reports[1].Frames > reports[0].Frames) {
		t.Fatalf("A_D_S (%d frames) should outlast always-fast (%d)",
			reports[1].Frames, reports[0].Frames)
	}
}

func TestMissionValidation(t *testing.T) {
	good := Config{
		Frame:           frame(t, 0.78, 0.001),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e8,
		MaxFrames:       10,
	}
	bad := good
	bad.Scheme = nil
	if _, err := Run(bad, 1); err == nil {
		t.Error("nil scheme accepted")
	}
	bad = good
	bad.BatteryCapacity = 0
	if _, err := Run(bad, 1); err == nil {
		t.Error("zero battery accepted")
	}
	bad = good
	bad.MaxFrames = 0
	if _, err := Run(bad, 1); err == nil {
		t.Error("zero frames accepted")
	}
	bad = good
	bad.Frame.Lambda = -1
	if _, err := Run(bad, 1); err == nil {
		t.Error("bad frame params accepted")
	}
	bad = good
	bad.PermanentLambda = -0.1
	if _, err := Run(bad, 1); err == nil {
		t.Error("negative permanent rate accepted")
	}
	bad = good
	bad.Frame.Imperfect = &fault.Imperfection{Coverage: 2}
	if _, err := Run(bad, 1); err == nil {
		t.Error("bad imperfection accepted")
	}
}

func TestSimplexParams(t *testing.T) {
	p := frame(t, 0.78, 0.001)
	p.Imperfect = &fault.Imperfection{Coverage: 0.9, StoreCorruption: 0.2}
	q := simplex(p)
	if q.Replicas != 1 || q.Costs.Compare != 0 {
		t.Fatalf("simplex frame = %+v", q)
	}
	if q.Imperfect.Coverage != 0 || q.Imperfect.StoreCorruption != 0.2 {
		t.Fatalf("simplex imperfection = %+v", q.Imperfect)
	}
	// The original config must be untouched.
	if p.Replicas == 1 || p.Imperfect.Coverage != 0.9 {
		t.Fatalf("simplex mutated its input: %+v", p)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("degraded frame invalid: %v", err)
	}
}

// TestSimplexFrameBounded pins the cost of a degraded frame under a
// CCP-flavour scheme: the simplex frame's CCPs are free (no partner to
// compare against), so the planner flies it without them instead of
// walking the sub-interval count to its 2^20 bound. Frames at the
// degrade defaults (U=0.78, λ=0.0014, SCP setting, E3's knobs with
// corrupt 0.2) take microseconds each in DMR; twenty simplex frames get
// a generous second.
func TestSimplexFrameBounded(t *testing.T) {
	p := frame(t, 0.78, 0.0014)
	p.Imperfect = &fault.Imperfection{Coverage: 0.95, StoreCorruption: 0.2, CheckpointVulnerable: true}
	q := simplex(p)
	rctx := sim.NewRunContext()
	start := time.Now()
	for f := 0; f < 20; f++ {
		res := sim.RunScheme(rctx, core.NewAdaptDVSCCP(), q, rctx.Reseed(rng.Stream(1, f)))
		if res.SubCheckpoints != 0 {
			t.Fatalf("simplex frame %d took %d sub-checkpoints, want none", f, res.SubCheckpoints)
		}
		if res.CSCPs == 0 {
			t.Fatalf("simplex frame %d took no checkpoints: %+v", f, res)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("20 simplex frames took %v", d)
	}
}

func TestMissionPermanentDegradation(t *testing.T) {
	// A rate high enough that the first permanent fault lands early and
	// the second ends the mission before the horizon.
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0010),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e12,
		MaxFrames:       4000,
		PermanentLambda: 2e-7,
	}
	sawLost, sawDegraded := false, false
	for seed := uint64(0); seed < 12; seed++ {
		rep, err := Run(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DegradedFrames > 0 {
			sawDegraded = true
			if rep.PermanentFaults == 0 {
				t.Fatalf("seed %d: degraded frames without a permanent fault: %+v", seed, rep)
			}
		}
		if rep.Reason == EndReplicasLost {
			sawLost = true
			if rep.PermanentFaults != 2 {
				t.Fatalf("seed %d: replicas-lost with %d permanent faults", seed, rep.PermanentFaults)
			}
		}
		if rep.PermanentFaults > 2 {
			t.Fatalf("seed %d: %d permanent faults counted", seed, rep.PermanentFaults)
		}
	}
	if !sawDegraded || !sawLost {
		t.Fatalf("degradation unexercised: degraded=%v lost=%v", sawDegraded, sawLost)
	}
}

func TestMissionSimplexFramesAreWrongSometimes(t *testing.T) {
	// Once degraded, faults go undetected: frames complete on time but
	// carry silent corruption, counted as WrongFrames (not Misses).
	cfg := Config{
		Frame:           frame(t, 0.70, 0.0012),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e12,
		MaxFrames:       3000,
		PermanentLambda: 1e-6, // degrade almost immediately
	}
	total := Report{}
	for seed := uint64(0); seed < 8; seed++ {
		rep, err := Run(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		total.WrongFrames += rep.WrongFrames
		total.DegradedFrames += rep.DegradedFrames
		total.Misses += rep.Misses
	}
	if total.DegradedFrames == 0 {
		t.Fatal("no degraded frames at λ_perm=1e-6")
	}
	if total.WrongFrames == 0 {
		t.Fatal("no wrong frames: simplex frames should suffer silent corruption")
	}
	if total.WrongFrames > total.DegradedFrames {
		t.Fatalf("wrong frames (%d) exceed degraded frames (%d) in an otherwise-ideal DMR phase",
			total.WrongFrames, total.DegradedFrames)
	}
}

func TestMissionZeroPermanentRateIsSeedIdentical(t *testing.T) {
	// PermanentLambda 0 must not perturb the random stream: the report of
	// the extended mission equals the seed mission field-for-field.
	cfg := Config{
		Frame:           frame(t, 0.78, 0.001),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e8,
		MaxFrames:       100,
	}
	a, err := Run(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.PermanentFaults != 0 || a.DegradedFrames != 0 || a.WrongFrames != 0 {
		t.Fatalf("ideal mission reports imperfection: %+v", a)
	}
	if math.IsInf(a.FrameEnergy.SDC, 0) || a.FrameEnergy.SDC != 0 {
		t.Fatalf("ideal mission SDC = %v", a.FrameEnergy.SDC)
	}
}

// TestMissionSinkTelemetry: the sink sees start/milestone/end events,
// the frame counters match the report, and attaching a sink does not
// change a single bit of the mission outcome.
func TestMissionSinkTelemetry(t *testing.T) {
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0014),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e10,
		MaxFrames:       2500, // > 1024: at least one milestone fires
	}
	plain, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(256)
	cfg.Sink = telemetry.NewRegistrySink(reg, tr)
	traced, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("sink perturbed the mission:\nplain  %+v\ntraced %+v", plain, traced)
	}

	if got := reg.Counter(MetricFrames, "").Value(); got != int64(traced.Frames) {
		t.Errorf("%s = %d, want %d", MetricFrames, got, traced.Frames)
	}
	if got := reg.Counter(MetricMisses, "").Value(); got != int64(traced.Misses) {
		t.Errorf("%s = %d, want %d", MetricMisses, got, traced.Misses)
	}
	if got := reg.Counter(MetricRuns, "").Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRuns, got)
	}

	var sawStart, sawMilestone, sawEnd bool
	for _, ev := range tr.Snapshot() {
		switch ev.Name {
		case "mission.start":
			sawStart = true
		case "mission.milestone":
			sawMilestone = true
		case "mission.end":
			sawEnd = true
			if ev.Attrs["reason"] != string(traced.Reason) {
				t.Errorf("mission.end reason = %v, want %v", ev.Attrs["reason"], traced.Reason)
			}
		}
	}
	if !sawStart || !sawMilestone || !sawEnd {
		t.Errorf("trace incomplete: start=%v milestone=%v end=%v", sawStart, sawMilestone, sawEnd)
	}
}

// TestMissionSinkDegradedEvent: the DMR→simplex transition is traced.
func TestMissionSinkDegradedEvent(t *testing.T) {
	tr := telemetry.NewTracer(64)
	cfg := Config{
		Frame:           frame(t, 0.78, 0.0005),
		Scheme:          core.NewAdaptDVSSCP(),
		BatteryCapacity: 1e12,
		MaxFrames:       4000,
		PermanentLambda: 1e-7,
		Sink:            telemetry.NewRegistrySink(nil, tr),
	}
	rep, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PermanentFaults == 0 {
		t.Skip("seed flew no permanent fault — pick a harsher rate")
	}
	for _, ev := range tr.Snapshot() {
		if ev.Name == "mission.degraded" {
			return
		}
	}
	t.Error("permanent fault flew but mission.degraded never traced")
}
