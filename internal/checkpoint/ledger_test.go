package checkpoint_test

// The engine's stored-checkpoint ledger is store.Set. A storeless run
// holds its stores in a set with one unlimited tier and no costs (the
// paper's stable storage); these tests pin the ledger behaviour the
// rollback rule (Fig. 3 line 12) relies on, under that configuration.

import (
	"testing"

	"repro/internal/store"
)

func paperSet(t *testing.T) *store.Set {
	t.Helper()
	cfg := &store.Config{Tiers: []store.Tier{{Name: "paper"}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var s store.Set
	s.Configure(cfg)
	return &s
}

func latest(s *store.Set) (store.Image, bool) {
	imgs := s.Images()
	if len(imgs) == 0 {
		return store.Image{}, false
	}
	return imgs[len(imgs)-1], true
}

// latestConsistent scans back for the newest image whose replica states
// agree, the way the engine's restore walk skips diverged images.
func latestConsistent(s *store.Set) (store.Image, bool) {
	imgs := s.Images()
	for i := len(imgs) - 1; i >= 0; i-- {
		if !imgs[i].Diverged {
			return imgs[i], true
		}
	}
	return store.Image{}, false
}

func TestStorePushAndLatest(t *testing.T) {
	s := paperSet(t)
	if _, ok := latest(s); ok {
		t.Fatal("empty ledger has a latest image")
	}
	for _, w := range []float64{1, 2} {
		if writes := s.Insert(w, false); writes != 1 {
			t.Fatalf("Insert(%v) = %04b; want one write into tier 0", w, writes)
		}
	}
	im, ok := latest(s)
	if !ok || im.Work != 2 || im.Seq != 2 {
		t.Fatalf("latest = %+v, %v", im, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLatestConsistentScansBack(t *testing.T) {
	s := paperSet(t)
	s.Insert(1, false)
	s.Insert(2, false)
	s.Insert(3, true) // diverged
	s.Insert(4, true) // diverged
	im, ok := latestConsistent(s)
	if !ok || im.Work != 2 || !im.Usable() {
		t.Fatalf("latest consistent = %+v, %v; want Work=2", im, ok)
	}
	for _, im := range s.Images()[2:] {
		if im.Usable() {
			t.Fatalf("diverged image %+v reported usable", im)
		}
	}
}

func TestLatestConsistentNone(t *testing.T) {
	s := paperSet(t)
	s.Insert(1, true)
	if _, ok := latestConsistent(s); ok {
		t.Fatal("found consistency in an all-diverged ledger")
	}
}

func TestTruncateAfter(t *testing.T) {
	s := paperSet(t)
	for i := 1; i <= 5; i++ {
		s.Insert(float64(i), false)
	}
	if n := s.TruncateAfter(3); n != 2 || s.Len() != 3 {
		t.Fatalf("truncate(3) dropped %d, Len %d; want 2 and 3", n, s.Len())
	}
	if im, _ := latest(s); im.Work != 3 {
		t.Fatalf("latest after truncate = %v, want 3", im.Work)
	}
	if n := s.TruncateAfter(0); n != 3 || s.Len() != 0 {
		t.Fatalf("truncate(0) dropped %d, Len %d", n, s.Len())
	}
}

func TestStoreReset(t *testing.T) {
	s := paperSet(t)
	s.Insert(1, false)
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear left images")
	}
}

func TestCorruptedRecordPassesCheapConsistencyCheck(t *testing.T) {
	// The failure mode the imperfect-fault-tolerance extension models:
	// stable-storage damage after the digests were written is invisible
	// to the digest comparison, so the consistency scan still returns
	// the image — the damage surfaces only when a restore is attempted.
	s := paperSet(t)
	s.Insert(1, false)
	s.Insert(2, false)
	s.MarkCorrupted(1)
	im, ok := latestConsistent(s)
	if !ok || im.Work != 2 {
		t.Fatalf("latest consistent = %+v, %v; want the newest (corrupted) image", im, ok)
	}
	if !im.Corrupted {
		t.Fatal("corruption flag lost through the ledger")
	}
	if im.Usable() {
		t.Fatal("a corrupted image must fail its restore")
	}
}

func TestTruncateAndLatestOnEmptyStore(t *testing.T) {
	s := paperSet(t)
	if n := s.TruncateAfter(5); n != 0 {
		t.Fatalf("truncate on empty ledger dropped %d", n)
	}
	s.TruncateAfter(-1)
	if _, ok := latest(s); ok {
		t.Fatal("empty ledger has a latest image")
	}
	if _, ok := latestConsistent(s); ok {
		t.Fatal("empty ledger has a consistent image")
	}
	if got := s.Images(); len(got) != 0 {
		t.Fatalf("empty ledger exposes %d images", len(got))
	}
}

func TestStoreReusableAfterReset(t *testing.T) {
	s := paperSet(t)
	s.Insert(1, false)
	s.Clear()
	s.Insert(9, false)
	im, ok := latest(s)
	if !ok || im.Work != 9 || im.Seq != 1 || s.Len() != 1 {
		t.Fatalf("ledger after Clear+Insert: latest=%+v ok=%v len=%d", im, ok, s.Len())
	}
}
