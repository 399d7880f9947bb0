package core

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

func benchKernelParams(b testing.TB) sim.Params {
	return mustParams(b, 0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
}

// BenchmarkReseedBatch isolates the batched seed-stream setup a shard
// pays before its kernel runs: bulk counter-based seed derivation
// (rng.StreamBatch) plus the one-pass generator-state materialisation
// and per-repetition state installs the kernel performs. The reported
// ns/op is per repetition.
func BenchmarkReseedBatch(b *testing.B) {
	const batch = 128
	bctx := sim.NewBatchContext()
	bctx.Grow(batch)
	src := bctx.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		rng.StreamBatch(42, i, bctx.Seeds[:batch])
		bctx.States.Reseed(bctx.Seeds[:batch])
		for j := 0; j < batch; j++ {
			bctx.States.Load(src, j)
		}
	}
}

// BenchmarkArrivalSpanWalk isolates the bulk arrival queue's
// structure-of-arrays consumption: a straight-line walk over the
// pre-materialised arrival times, counting the faults in each
// checkpoint span by index arithmetic — the fault layer's bulk path,
// which the kernels replaced by live draws. The reported ns/op is per
// span consumed.
func BenchmarkArrivalSpanWalk(b *testing.B) {
	p := benchKernelParams(b)
	var arr fault.Arrivals
	arr.Reset(p.Lambda, rng.New(1), 64)
	const span = 0.05
	times := arr.Times()
	x, pos, faults := 0.0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := x + span
		if times[len(times)-1] < end {
			times = arr.EnsureBeyond(end)
		}
		p0 := pos
		for times[pos] < end {
			pos++
		}
		faults += pos - p0
		x = end
		if pos > 1<<16 {
			arr.Reset(p.Lambda, rng.New(uint64(i)+2), 64)
			times, x, pos = arr.Times(), 0, 0
		}
	}
	if faults < 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkKernelBatch times the batch kernels per repetition (ns/op
// is per repetition) on faulty Table 1a cells: the paper scheme through
// the adaptive kernel, a baseline through the static-rule loop
// (runStatic), which is kept beside the adaptive live loop only because
// it is faster on exactly this shape, and the paper scheme through the
// image-keeping loop (runKeepingImages) under E4's k = 8 store and E3's
// imperfect fault tolerance, whose cost is the checkpoint push.
func BenchmarkKernelBatch(b *testing.B) {
	e3 := fault.Imperfection{Coverage: 0.98, StoreCorruption: 0.08, CheckpointVulnerable: true}
	for _, bc := range []struct {
		name   string
		scheme sim.Scheme
		u      float64
		store  *store.Config
		imp    *fault.Imperfection
	}{
		{"A_D_S/U0.78", NewAdaptDVSSCP(), 0.78, nil, nil},
		{"Poisson(f=1)/U0.76", NewPoissonScheme(1), 0.76, nil, nil},
		{"A_D_S+store(k8)/U0.78", NewAdaptDVSSCP(), 0.78, store.DefaultConfig(8), nil},
		{"A_D_S+imp/U0.78", NewAdaptDVSSCP(), 0.78, nil, &e3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := mustParams(b, bc.u, 1, 0.0014, 5, checkpoint.SCPSetting())
			p.Store, p.Imperfect = bc.store, bc.imp
			rctx := sim.NewRunContext()
			bctx := sim.NewBatchContext()
			const batch = 128
			bctx.GrowWrong(batch)
			seeds := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				for j := range seeds {
					seeds[j] = uint64(i+j) + 1
				}
				if !sim.RunBatch(rctx, bctx, bc.scheme, p, seeds) {
					b.Fatal("not batchable")
				}
			}
		})
	}
}
