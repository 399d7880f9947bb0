package stats

import (
	"bytes"
	"math"
	"testing"
)

// sameSummary compares bit-for-bit: NaN == NaN when the bit patterns
// agree, which is exactly the determinism contract the codec must keep.
func sameSummary(a, b Summary) bool {
	if a.Trials != b.Trials {
		return false
	}
	pairs := [][2]float64{
		{a.P, b.P}, {a.PCI, b.PCI}, {a.E, b.E}, {a.ECI, b.ECI},
		{a.MeanFaults, b.MeanFaults}, {a.MeanTime, b.MeanTime},
		{a.MeanSwitches, b.MeanSwitches}, {a.TimeP50, b.TimeP50},
		{a.TimeP95, b.TimeP95}, {a.SDC, b.SDC}, {a.SDCCI, b.SDCCI},
	}
	for _, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// fillShard folds n deterministic observations into s, keyed and valued
// from base so different (base, n) pairs give distinct shards.
func fillShard(s *Shard, base uint64, n int) {
	for i := 0; i < n; i++ {
		k := base*1_000_000_007 + uint64(i)*0x9e3779b97f4a7c15
		completed := i%5 != 0
		wrong := i%17 == 0
		e := 1.5 + float64(i%7)*0.25
		t := 10 + float64(i%11)
		s.ObserveRun(k, completed, wrong, e, t, float64(i%3), float64(i%2))
	}
}

func TestShardCodecRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500} {
		var s Shard
		fillShard(&s, 42, n)
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var d Shard
		if err := d.UnmarshalBinary(b); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if d.Trials() != s.Trials() {
			t.Fatalf("n=%d: trials %d != %d", n, d.Trials(), s.Trials())
		}
		if !sameSummary(d.Summary(), s.Summary()) {
			t.Fatalf("n=%d: summary mismatch\n got %+v\nwant %+v", n, d.Summary(), s.Summary())
		}
	}
}

// A decoded shard must merge exactly like the original: splitting work
// across a marshal/unmarshal boundary (the crash-recovery path) cannot
// perturb a single bit of the merged summary.
func TestShardCodecMergeEquivalence(t *testing.T) {
	var a, b Shard
	fillShard(&a, 1, 300)
	fillShard(&b, 2, 200)

	var direct Shard
	direct.Merge(&a)
	direct.Merge(&b)

	enc, _ := a.MarshalBinary()
	var thawed Shard
	if err := thawed.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var viaCodec Shard
	viaCodec.Merge(&thawed)
	viaCodec.Merge(&b)

	if !sameSummary(direct.Summary(), viaCodec.Summary()) {
		t.Fatalf("merge through codec diverged\n got %+v\nwant %+v", viaCodec.Summary(), direct.Summary())
	}
}

func TestShardCodecSpecialValues(t *testing.T) {
	var s Shard
	s.ObserveRun(1, true, false, math.Inf(1), 5, 0, 1)
	s.ObserveRun(2, true, false, math.NaN(), 6, 2, 0)
	s.ObserveRun(3, false, false, 0, 0, 1, 1)
	b, _ := s.MarshalBinary()
	var d Shard
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, want := d.Summary(), s.Summary()
	if got.Trials != want.Trials || got.P != want.P {
		t.Fatalf("summary mismatch: %+v vs %+v", got, want)
	}
	if !math.IsNaN(got.E) {
		t.Fatalf("NaN energy not preserved: E=%v", got.E)
	}
}

// Corrupt or truncated bytes must be rejected, never decoded into a
// shard that claims observations.
func TestShardCodecRejectsCorruption(t *testing.T) {
	var s Shard
	fillShard(&s, 9, 64)
	good, _ := s.MarshalBinary()

	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, good[1:]...),
		"truncated":   good[:len(good)/2],
		"trailing":    append(append([]byte{}, good...), 0xAA),
	}
	// completed > trials.
	inconsistent := append([]byte{}, good...)
	inconsistent[1], inconsistent[2], inconsistent[3], inconsistent[4] = 0, 0, 0, 0
	cases["counts"] = inconsistent

	// Non-canonical encodings of valid state: they would decode, but
	// re-encode to different bytes.
	var empty Shard
	untrimmed := empty.AppendBinary(nil)
	untrimmed[13] = 1 // energy sum: empty window starting at limb 1
	cases["empty window off 0"] = untrimmed
	zeroLimb := append(append([]byte{}, untrimmed[:14]...), 1, 0, 0, 0, 0, 0, 0, 0, 0)
	cases["zero edge limb"] = append(zeroLimb, untrimmed[15:]...)
	var two Shard
	two.ObserveRun(1, true, false, 1, 1, 0, 0)
	two.ObserveRun(2, true, false, 1, 1, 0, 0)
	swapped := two.AppendBinary(nil)
	n := len(swapped)
	tail := append(append([]byte{}, swapped[n-16:]...), swapped[n-32:n-16]...)
	cases["tail out of heap order"] = append(swapped[:n-32], tail...)

	for name, b := range cases {
		var d Shard
		if err := d.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
		if d.Trials() != 0 {
			t.Errorf("%s: corrupt input left %d trials", name, d.Trials())
		}
	}
}

func TestShardCodecLimbWindow(t *testing.T) {
	// A sum of one tiny and one huge value exercises a wide limb window.
	var s Shard
	s.ObserveRun(1, true, false, 5e-324, 1e300, 0, 0)
	b, _ := s.MarshalBinary()
	var d Shard
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !sameSummary(d.Summary(), s.Summary()) {
		t.Fatalf("wide-window summary mismatch")
	}
	// Window compression must still beat a flat 34-limb dump per sum.
	if len(b) >= 5*(2+34*8+8)+64 {
		t.Fatalf("encoding suspiciously large: %d bytes", len(b))
	}
}

// FuzzShardUnmarshal drives the shard decoder — the path every cluster
// worker result and journal checkpoint takes back into the merge
// algebra — over arbitrary bytes. It must never panic; any input it
// accepts must be the canonical encoding of the decoded state
// (re-encoding reproduces it byte for byte, so accepted bytes carry no
// hidden or ambiguous content) and must not claim more completions or
// corruptions than repetitions. A rejected input leaves the shard empty.
func FuzzShardUnmarshal(f *testing.F) {
	for _, n := range []int{0, 1, 7, 64} {
		var s Shard
		fillShard(&s, uint64(n)+1, n)
		f.Add(s.AppendBinary(nil))
	}
	var special Shard
	special.ObserveRun(1, true, false, math.Inf(1), 5, 0, 1)
	special.ObserveRun(2, true, true, math.NaN(), 6, 2, 0)
	special.ObserveRun(3, false, false, 0, 0, 1, 1)
	special.ObserveRun(4, true, false, 5e-324, 1e300, 0, 0)
	f.Add(special.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Shard
		if err := s.UnmarshalBinary(data); err != nil {
			if s.Trials() != 0 {
				t.Fatalf("rejected input left %d trials", s.Trials())
			}
			return
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted input does not re-encode identically:\n in  %x\n out %x", data, got)
		}
		if !(s.wrong <= s.completed && s.completed <= s.Trials()) {
			t.Fatalf("decoded counts wrong=%d completed=%d trials=%d", s.wrong, s.completed, s.Trials())
		}
	})
}
