// Binary serialisation of the merge algebra: a Shard can be frozen to
// bytes and thawed elsewhere (another attempt, another process, a
// journal replay after a crash) with every bit of accumulated state
// intact. The encoding is canonical — a Shard's bytes are a pure
// function of its state — and self-validating enough that a decoder fed
// garbage fails loudly instead of inventing observations, which is what
// lets journal replay trust recovered shard checkpoints.
//
// Layout (all integers little-endian):
//
//	u8  version (shardCodecVersion)
//	u32 trials, u32 completed, u32 wrong
//	5 × FixedSum   (energy, energySq, time, faults, switches)
//	TailSample     (timeTail)
//
// FixedSum: u8 firstLimb, u8 limbCount, limbCount × u64 limbs (the
// non-zero window only — exact sums of a few summands occupy two or
// three limbs out of 34), u32 nans, u32 infs.
//
// TailSample: u32 seen, u32 kept, kept × (u64 key, u64 value bits).
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

const shardCodecVersion = 1

// maxTailKept mirrors tailCap: a decoder must never allocate more
// entries than an encoder can produce.
const maxTailKept = tailCap

var errShardCodec = errors.New("stats: malformed shard encoding")

// AppendBinary appends the canonical encoding of the shard to b and
// returns the extended slice.
func (s *Shard) AppendBinary(b []byte) []byte {
	b = append(b, shardCodecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.trials))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.completed))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.wrong))
	for _, f := range []*FixedSum{&s.energy, &s.energySq, &s.time, &s.faults, &s.switches} {
		b = f.appendBinary(b)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(s.timeTail.seen))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.timeTail.entries)))
	for _, e := range s.timeTail.entries {
		b = binary.LittleEndian.AppendUint64(b, e.key)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.val))
	}
	return b
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Shard) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 256)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It replaces
// the shard's state entirely, validates every structural bound, and
// rejects trailing bytes; on error the shard is left reset. Counts are
// cross-checked (completed ≤ trials, wrong ≤ completed, tail seen ==
// completed, kept ≤ min(seen, capacity)) so corrupted or adversarial
// bytes cannot decode into a shard claiming observations that never
// happened, and only the canonical encoding is accepted (trimmed limb
// windows, tail entries in heap order): accepted bytes re-encode
// identically.
func (s *Shard) UnmarshalBinary(data []byte) error {
	s.Reset()
	d := decoder{buf: data}
	if v := d.u8(); v != shardCodecVersion {
		return fmt.Errorf("%w: version %d", errShardCodec, v)
	}
	trials := int(d.u32())
	completed := int(d.u32())
	wrong := int(d.u32())
	if completed > trials || wrong > completed {
		return fmt.Errorf("%w: counts %d/%d/%d inconsistent", errShardCodec, trials, completed, wrong)
	}
	for _, f := range []*FixedSum{&s.energy, &s.energySq, &s.time, &s.faults, &s.switches} {
		if err := f.decode(&d); err != nil {
			s.Reset()
			return err
		}
	}
	seen := int(d.u32())
	kept := int(d.u32())
	if seen != completed || kept > seen || kept > maxTailKept {
		s.Reset()
		return fmt.Errorf("%w: tail seen=%d kept=%d completed=%d", errShardCodec, seen, kept, completed)
	}
	if d.err == nil && len(d.buf)-d.off < kept*16 {
		s.Reset()
		return errShardCodec
	}
	s.timeTail.seen = seen
	for i := 0; i < kept; i++ {
		e := tailEntry{key: d.u64(), val: math.Float64frombits(d.u64())}
		// The encoder writes the heap array verbatim, so every entry must
		// sit no higher than its parent; anything else would decode (Add
		// restores the heap) yet re-encode to different bytes.
		if i > 0 && s.timeTail.entries[(i-1)/2].less(e) {
			s.Reset()
			return fmt.Errorf("%w: tail entry %d out of heap order", errShardCodec, i)
		}
		// Rebuild the heap through Add (seen is pre-credited above, so
		// undo Add's increment).
		s.timeTail.Add(e.key, e.val)
		s.timeTail.seen--
	}
	if d.err != nil || d.off != len(d.buf) {
		s.Reset()
		return errShardCodec
	}
	s.trials = trials
	s.completed = completed
	s.wrong = wrong
	return nil
}

// appendBinary writes the non-zero limb window of the sum.
func (f *FixedSum) appendBinary(b []byte) []byte {
	first, last := fixedLimbs, -1
	for i, l := range f.limbs {
		if l != 0 {
			if first == fixedLimbs {
				first = i
			}
			last = i
		}
	}
	count := 0
	if last >= 0 {
		count = last - first + 1
	} else {
		first = 0
	}
	b = append(b, byte(first), byte(count))
	for i := first; i < first+count; i++ {
		b = binary.LittleEndian.AppendUint64(b, f.limbs[i])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(f.nans))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.infs))
	return b
}

func (f *FixedSum) decode(d *decoder) error {
	f.Reset()
	first := int(d.u8())
	count := int(d.u8())
	if first+count > fixedLimbs {
		return fmt.Errorf("%w: limb window [%d,%d)", errShardCodec, first, first+count)
	}
	for i := 0; i < count; i++ {
		f.limbs[first+i] = d.u64()
	}
	f.nans = int(d.u32())
	f.infs = int(d.u32())
	if d.err != nil {
		return errShardCodec
	}
	// The encoder trims the window to its non-zero ends (an all-zero sum
	// is the empty window at 0), so any other window is non-canonical.
	if count == 0 && first != 0 || count > 0 && (f.limbs[first] == 0 || f.limbs[first+count-1] == 0) {
		return fmt.Errorf("%w: untrimmed limb window [%d,%d)", errShardCodec, first, first+count)
	}
	return nil
}

// decoder is a bounds-checked little-endian reader: the first short
// read latches err and every later read returns zero.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.err = errShardCodec
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}
