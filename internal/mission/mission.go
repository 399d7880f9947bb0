// Package mission integrates the per-frame simulator with the energy
// substrate: a mission is a long sequence of identical real-time frames
// (control-loop iterations), each executed by a checkpointing scheme
// under fault injection, drawing its measured energy from a battery that
// an optional duty-cycled source recharges. The mission report couples
// the paper's two metrics over system lifetime: deadline misses cost
// availability, energy draw costs endurance, and the scheme choice
// trades one against the other.
package mission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Metric families a mission reports through its Sink.
const (
	// MetricFrames counts frames flown across missions.
	MetricFrames = "mission_frames_total"
	// MetricMisses counts frames that failed their deadline.
	MetricMisses = "mission_misses_total"
	// MetricWrongFrames counts silently corrupted completed frames.
	MetricWrongFrames = "mission_wrong_frames_total"
	// MetricDegradedFrames counts frames flown in simplex mode.
	MetricDegradedFrames = "mission_degraded_frames_total"
	// MetricRuns counts missions flown to any end reason.
	MetricRuns = "mission_runs_total"
)

// Config describes a mission.
type Config struct {
	// Frame is the per-frame simulation setup (task, costs, λ, CPU).
	Frame sim.Params
	// Scheme executes each frame.
	Scheme sim.Scheme
	// Battery capacity in V²·cycles; the pack starts full.
	BatteryCapacity float64
	// Harvest recharges between frames (zero value = none).
	Harvest battery.Source
	// MaxFrames bounds the mission.
	MaxFrames int
	// AbortOnMiss ends the mission at the first deadline miss (hard
	// real-time); otherwise misses are counted and the mission continues
	// with the next frame.
	AbortOnMiss bool
	// PermanentLambda is the rate, per unit of mission wall-clock time,
	// at which a replica suffers a permanent hard fault. The first
	// arrival gracefully degrades the platform from DMR to simplex at
	// the next frame boundary: comparison is impossible (faults go
	// undetected and surface as WrongFrames), checkpoints become
	// store-only, and only the surviving replica's energy is drawn. The
	// second arrival kills the remaining replica and ends the mission
	// (EndReplicasLost). Zero — the paper's setting — never fires.
	// Imperfection of the *transient* machinery is configured per frame
	// via Frame.Imperfect.
	PermanentLambda float64
	// Sink, when non-nil, receives mission telemetry: start / milestone
	// / degraded / end trace events and the frame counters, flushed at
	// mission end. The per-frame check is a nil guard plus a modulo —
	// no randomness is consumed and no result bit changes, so golden
	// trajectories are identical with or without a sink.
	Sink telemetry.Sink
}

func (c Config) validate() error {
	if c.Scheme == nil {
		return errors.New("mission: nil scheme")
	}
	if err := c.Frame.Validate(); err != nil {
		return err
	}
	if c.BatteryCapacity <= 0 {
		return fmt.Errorf("mission: bad battery capacity %v", c.BatteryCapacity)
	}
	if c.MaxFrames <= 0 {
		return errors.New("mission: non-positive frame budget")
	}
	if c.PermanentLambda < 0 || math.IsNaN(c.PermanentLambda) {
		return fmt.Errorf("mission: bad permanent-fault rate %v", c.PermanentLambda)
	}
	return nil
}

// simplex degrades the frame parameters to a single surviving replica:
// detection coverage drops to zero (no partner to compare against),
// checkpoints become store-only, and energy is metered for one replica.
// Store-corruption and checkpoint-vulnerability knobs of the original
// imperfection model are retained — losing a replica does not heal the
// stable storage.
func simplex(p sim.Params) sim.Params {
	q := p
	q.Replicas = 1
	if q.Costs.Store > 0 {
		// The comparison phase of every checkpoint vanishes with the
		// partner. (Kept when the store cost is zero: a cost model must
		// stay positive for the interval policies.)
		q.Costs.Compare = 0
	}
	var im fault.Imperfection
	if p.Imperfect != nil {
		im = *p.Imperfect
	}
	im.Coverage = 0
	q.Imperfect = &im
	return q
}

// EndReason explains why a mission ended.
type EndReason string

// Mission end reasons.
const (
	// EndHorizon: the frame budget was exhausted (mission success).
	EndHorizon EndReason = "horizon"
	// EndBatteryFlat: the pack could not power the next frame.
	EndBatteryFlat EndReason = "battery-flat"
	// EndDeadlineMiss: a frame missed its deadline with AbortOnMiss set.
	EndDeadlineMiss EndReason = "deadline-miss"
	// EndReplicasLost: permanent faults killed both replicas.
	EndReplicasLost EndReason = "replicas-lost"
	// EndCancelled: the caller's context fired mid-mission; the report is
	// a partial accounting of the frames flown before the cancellation.
	EndCancelled EndReason = "cancelled"
)

// Report summarises a mission.
type Report struct {
	Reason EndReason
	// Frames executed (including the final failed one, if any).
	Frames int
	// Misses counts frames that failed their deadline.
	Misses int
	// EnergyUsed is the total V²·cycles drawn from the pack.
	EnergyUsed float64
	// FinalCharge is the pack charge at mission end.
	FinalCharge float64
	// Faults counts injected faults across all frames.
	Faults int
	// FrameEnergy summarises per-frame energy (all frames).
	FrameEnergy stats.Summary

	// PermanentFaults counts permanent replica losses (0, 1 or 2).
	PermanentFaults int
	// DegradedFrames counts frames flown in simplex mode after the
	// first permanent fault.
	DegradedFrames int
	// WrongFrames counts frames that completed on time with silently
	// corrupted output — service continued, correctness lost. They are
	// NOT counted in Misses.
	WrongFrames int
}

// Run executes the mission, seeded deterministically.
func Run(cfg Config, seed uint64) (Report, error) {
	return RunCtx(context.Background(), cfg, seed)
}

// RunCtx is Run with cancellation: the frame loop polls ctx between
// frames and, once it fires, returns the partial report (Reason
// EndCancelled) together with ctx.Err(). Polling consumes no randomness,
// so an unfired context leaves trajectories bit-for-bit unchanged.
func RunCtx(ctx context.Context, cfg Config, seed uint64) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	pack, err := battery.New(cfg.BatteryCapacity)
	if err != nil {
		return Report{}, err
	}
	src := rng.New(seed)
	var cell stats.Cell
	rep := Report{Reason: EndHorizon}

	if cfg.Sink != nil {
		cfg.Sink.Event("mission.start", map[string]any{
			"scheme": cfg.Scheme.Name(), "frames_budget": cfg.MaxFrames,
			"battery": cfg.BatteryCapacity, "seed": seed,
		})
		// Flushed on every exit path, including cancellation.
		defer func() {
			cfg.Sink.Count(MetricRuns, 1)
			cfg.Sink.Count(MetricFrames, int64(rep.Frames))
			cfg.Sink.Count(MetricMisses, int64(rep.Misses))
			cfg.Sink.Count(MetricWrongFrames, int64(rep.WrongFrames))
			cfg.Sink.Count(MetricDegradedFrames, int64(rep.DegradedFrames))
			cfg.Sink.Event("mission.end", map[string]any{
				"reason": string(rep.Reason), "frames": rep.Frames,
				"misses": rep.Misses, "wrong": rep.WrongFrames,
				"energy_used": rep.EnergyUsed, "final_charge": rep.FinalCharge,
			})
		}()
	}

	// Permanent-fault arrivals on the mission wall clock. Drawn only when
	// the rate is positive so paper-setting missions consume exactly the
	// seed's randomness.
	perm1, perm2 := math.Inf(1), math.Inf(1)
	if cfg.PermanentLambda > 0 {
		perm1 = fault.DrawPermanent(cfg.PermanentLambda, src)
		perm2 = perm1 + fault.DrawPermanent(cfg.PermanentLambda, src)
	}
	degradedFrame := simplex(cfg.Frame)
	elapsed := 0.0
	degraded := false

	// One run context serves every frame: frames are sequential, so the
	// engine and the planner are reused mission-long. Each frame's stream
	// is the f-th member of the counter-based seed family rng.Stream(seed,
	// f) — a pure function of (seed, frame index), the same derivation the
	// experiment runner uses per repetition — so frame streams no longer
	// chain through the mission source and future frame-sharding can
	// reconstruct any frame's stream independently. (The mission source
	// still serves the permanent-fault draws above.) The context comes
	// from sim's shared pool, so a mission does not re-allocate engine
	// buffers and planner pools, and reuse is bit-identical to a fresh
	// context. It goes back on both returns below; a panicking scheme
	// skips them, which drops the pair as the pool's policy requires.
	sc := sim.GetContexts()
	rctx := &sc.Run

	for f := 0; f < cfg.MaxFrames; f++ {
		if f&0x3f == 0 && ctx.Err() != nil {
			rep.Reason = EndCancelled
			rep.FinalCharge = pack.Charge()
			rep.FrameEnergy = cell.Summary()
			sim.PutContexts(sc)
			return rep, ctx.Err()
		}
		// Frame-milestone trace: one event per 1024 frames, so even a
		// ten-million-frame mission stays within a bounded trace buffer.
		if cfg.Sink != nil && f > 0 && f&0x3ff == 0 {
			cfg.Sink.Event("mission.milestone", map[string]any{
				"frame": f, "charge": pack.Charge(), "misses": rep.Misses,
			})
		}
		if !degraded && elapsed >= perm1 {
			degraded = true
			rep.PermanentFaults++
			if cfg.Sink != nil {
				cfg.Sink.Event("mission.degraded", map[string]any{
					"frame": f, "mode": "dmr->simplex",
				})
			}
		}
		if degraded && elapsed >= perm2 {
			rep.PermanentFaults++
			rep.Reason = EndReplicasLost
			break
		}
		pack.Recharge(cfg.Harvest.Available(f))

		frame := cfg.Frame
		if degraded {
			frame = degradedFrame
			rep.DegradedFrames++
		}
		res := sim.RunScheme(rctx, cfg.Scheme, frame, rctx.Reseed(rng.Stream(seed, f)))
		elapsed += res.Time
		rep.Frames++
		rep.Faults += res.Faults
		if res.Completed && res.SilentCorruption {
			rep.WrongFrames++
		}
		cell.ObserveRun(res.Completed, res.SilentCorruption,
			res.Energy, res.Time, float64(res.Faults), float64(res.Switches))

		if !pack.Draw(res.Energy) {
			rep.EnergyUsed += math.Min(res.Energy, cfg.BatteryCapacity)
			rep.Reason = EndBatteryFlat
			break
		}
		rep.EnergyUsed += res.Energy

		if !res.Completed {
			rep.Misses++
			if cfg.AbortOnMiss {
				rep.Reason = EndDeadlineMiss
				break
			}
		}
	}
	rep.FinalCharge = pack.Charge()
	rep.FrameEnergy = cell.Summary()
	sim.PutContexts(sc)
	return rep, nil
}

// Compare runs the same mission under several schemes and returns the
// reports in order — the scheme-selection view the paper's platforms
// care about.
func Compare(cfg Config, schemes []sim.Scheme, seed uint64) ([]Report, error) {
	return CompareCtx(context.Background(), cfg, schemes, seed)
}

// CompareCtx is Compare with cancellation. The schemes' missions are
// independent — scheme i always flies with seed+i — so they run
// concurrently, bounded by GOMAXPROCS; reports come back in scheme
// order, bit-identical to a sequential sweep. On error (the first by
// scheme order, deterministically) the reports are discarded.
func CompareCtx(ctx context.Context, cfg Config, schemes []sim.Scheme, seed uint64) ([]Report, error) {
	reports := make([]Report, len(schemes))
	errs := make([]error, len(schemes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func(i int, s sim.Scheme) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Scheme = s
			reports[i], errs[i] = RunCtx(ctx, c, seed+uint64(i))
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}
