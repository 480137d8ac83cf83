package core

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
	"seedex/internal/editmachine"
)

// FuzzStrictRegionCont pins ModeStrict's closed-form region bound to the
// relaxed DP it replaces: for arbitrary sequences, band, seed score,
// boundary E-scores and admissible scoring, regionCont must report the
// exact sweep's ScorePlusCont and Empty.
func FuzzStrictRegionCont(f *testing.F) {
	acgt := []byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3}
	f.Add(acgt[:12], acgt, []byte{0, 70, 0, 90}, 0, 40, uint8(0), uint8(3), uint8(6), uint8(0))         // w = 0
	f.Add(acgt[:12], acgt[:6], []byte{0, 80, 80}, 9, 40, uint8(0), uint8(3), uint8(6), uint8(0))        // m <= w: empty
	f.Add(acgt, acgt[:9], []byte{0, 90, 90, 90, 90}, 2, 55, uint8(1), uint8(2), uint8(3), uint8(1))     // n > m
	f.Add(acgt[:10], acgt, []byte{}, 3, 30, uint8(0), uint8(3), uint8(6), uint8(0))                     // empty E
	f.Add(acgt[:6], acgt, []byte{0, 0, 0, 0, 0, 0, 200}, 4, 10, uint8(2), uint8(7), uint8(0), uint8(3)) // E live only at j = n
	f.Fuzz(func(t *testing.T, q, tgt, eRaw []byte, w, h0 int, match, mis, gapO, gapE uint8) {
		if len(q) > 160 || len(tgt) > 200 || len(eRaw) > 200 {
			return
		}
		for i := range q {
			q[i] %= 5
		}
		for i := range tgt {
			tgt[i] %= 5
		}
		w = absMod(w, 40)
		h0 = absMod(h0, 1<<20)
		sc := randomAdmissible(match, mis, gapO, gapE)
		e := make([]int, len(eRaw))
		for j, b := range eRaw {
			e[j] = int(b) - 64 // <= 0 marks a dead crossing
		}
		cont, empty := regionCont(len(q), len(tgt), w, h0, e, sc)
		sw := editmachine.SweepExact(q, tgt, w, h0, e, sc, editmachine.RelaxedFor(sc))
		if empty != sw.Empty || (!empty && cont != sw.ScorePlusCont) {
			t.Fatalf("n=%d m=%d w=%d h0=%d sc=%+v e=%v: regionCont (%d, empty=%v) != sweep (%d, empty=%v)",
				len(q), len(tgt), w, h0, sc, e, cont, empty, sw.ScorePlusCont, sw.Empty)
		}
	})
}

func absMod(v, n int) int {
	v %= n
	if v < 0 {
		v = -v
	}
	return v
}

// randomAdmissible maps four fuzz bytes onto a valid affine scoring whose
// relaxed scheme (editmachine.RelaxedFor) is admissible.
func randomAdmissible(match, mis, gapO, gapE uint8) align.Scoring {
	return align.Scoring{
		Match:     1 + int(match%4),
		Mismatch:  1 + int(mis%8),
		GapOpen:   int(gapO % 12),
		GapExtend: 1 + int(gapE%5),
	}
}

// TestStrictRegionContRandom replays FuzzStrictRegionCont's property over
// a deterministic random sample with E-scores captured from the banded
// kernel itself, so plain `go test` covers more than the seed corpus.
func TestStrictRegionContRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 3000; iter++ {
		sc := randomAdmissible(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		if err := editmachine.RelaxedFor(sc).Admissible(sc); err != nil {
			t.Fatal(err)
		}
		var q, tg []byte
		var h0 int
		if rng.Intn(2) == 0 {
			q, tg, h0 = realisticCase(rng)
		} else {
			q, tg, h0 = adversarialCase(rng)
		}
		w := rng.Intn(25)
		_, bd := align.ExtendBanded(q, tg, h0, sc, w)
		cont, empty := regionCont(len(q), len(tg), w, h0, bd.E, sc)
		sw := editmachine.SweepExact(q, tg, w, h0, bd.E, sc, editmachine.RelaxedFor(sc))
		if empty != sw.Empty || (!empty && cont != sw.ScorePlusCont) {
			t.Fatalf("iter %d n=%d m=%d w=%d h0=%d sc=%+v: regionCont (%d, empty=%v) != sweep (%d, empty=%v)",
				iter, len(q), len(tg), w, h0, sc, cont, empty, sw.ScorePlusCont, sw.Empty)
		}
	}
}
