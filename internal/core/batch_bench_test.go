package core

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/sim"
)

func benchKernelParams(b testing.TB) sim.Params {
	return mustParams(b, 0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
}

func BenchmarkKernelScalar(b *testing.B) {
	p := benchKernelParams(b)
	s := NewAdaptDVSSCP()
	rctx := sim.NewRunContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.RunScheme(rctx, s, p, rctx.Reseed(uint64(i)+1))
	}
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

// BenchmarkArrivalSpanWalk isolates the kernels' structure-of-arrays
// arrival consumption: a straight-line walk over the pre-materialised
// arrival times, counting the faults in each checkpoint span by index
// arithmetic — the inner loop both batch kernels run between
// checkpoints. The reported ns/op is per span consumed.
func BenchmarkArrivalSpanWalk(b *testing.B) {
	p := benchKernelParams(b)
	bctx := sim.NewBatchContext()
	arr := bctx.Arrivals()
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
// the adaptive kernel, and a baseline through the static-rule loop
// (runStatic), which is kept beside the adaptive live loop only because
// it is faster on exactly this shape.
func BenchmarkKernelBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		scheme sim.Scheme
		u      float64
	}{
		{"A_D_S/U0.78", NewAdaptDVSSCP(), 0.78},
		{"Poisson(f=1)/U0.76", NewPoissonScheme(1), 0.76},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := mustParams(b, bc.u, 1, 0.0014, 5, checkpoint.SCPSetting())
			rctx := sim.NewRunContext()
			bctx := sim.NewBatchContext()
			const batch = 128
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
