package align

import (
	"math/rand"
	"testing"
)

func TestTracebackScoreMatchesDP(t *testing.T) {
	sc := DefaultScoring()
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, tg, h0 := extensionCase(r)
		res, mx := NaiveExtend(q, tg, h0, sc)
		if res.Local <= 0 {
			continue
		}
		cig, err := Traceback(mx, sc, res.LocalT, res.LocalQ)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := cig.Validate(res.LocalQ, res.LocalT); err != nil {
			t.Fatalf("seed %d: %v (cigar %s)", seed, err, cig)
		}
		if got := cig.Score(q, tg, h0, sc); got != res.Local {
			t.Fatalf("seed %d: cigar %s rescored to %d, DP says %d", seed, cig, got, res.Local)
		}
		if res.Global > 0 {
			gc, err := Traceback(mx, sc, res.GlobalT, len(q))
			if err != nil {
				t.Fatalf("seed %d: global: %v", seed, err)
			}
			if err := gc.Validate(len(q), res.GlobalT); err != nil {
				t.Fatalf("seed %d: global: %v (cigar %s)", seed, err, gc)
			}
			if got := gc.Score(q, tg, h0, sc); got != res.Global {
				t.Fatalf("seed %d: global cigar %s rescored to %d, DP says %d", seed, gc, got, res.Global)
			}
		}
	}
}

func TestTracebackPerfect(t *testing.T) {
	sc := DefaultScoring()
	q := []byte{0, 1, 2, 3, 0, 1}
	res, mx := NaiveExtend(q, q, 10, sc)
	cig, err := Traceback(mx, sc, res.LocalT, res.LocalQ)
	if err != nil {
		t.Fatal(err)
	}
	if cig.String() != "6M" {
		t.Fatalf("perfect match cigar = %s, want 6M", cig)
	}
}

func TestTracebackGap(t *testing.T) {
	sc := DefaultScoring()
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	tg := append([]byte(nil), q[:6]...)
	tg = append(tg, 2, 2, 2)
	tg = append(tg, q[6:]...)
	res, mx := NaiveExtend(q, tg, 30, sc)
	cig, err := Traceback(mx, sc, res.GlobalT, len(q))
	if err != nil {
		t.Fatal(err)
	}
	// The inserted bases match a flank base, so several equal-scoring
	// paths exist (e.g. 6M3D6M or 7M3D5M); require shape, not identity.
	if len(cig) != 3 || cig[1].Op != OpDel || cig[1].Len != 3 {
		t.Fatalf("gap cigar = %s, want xM3DyM", cig)
	}
	if got := cig.Score(q, tg, 30, sc); got != res.Global {
		t.Fatalf("gap cigar %s rescored to %d, want %d", cig, got, res.Global)
	}
}

func TestCigarBasics(t *testing.T) {
	var c Cigar
	if c.String() != "*" {
		t.Fatalf("empty cigar renders %q", c.String())
	}
	c = c.append(OpMatch, 3)
	c = c.append(OpMatch, 2)
	c = c.append(OpIns, 1)
	if c.String() != "5M1I" {
		t.Fatalf("cigar = %s, want 5M1I", c)
	}
	if c.QueryLen() != 6 || c.TargetLen() != 5 {
		t.Fatalf("lengths: q=%d t=%d", c.QueryLen(), c.TargetLen())
	}
	if err := c.Validate(6, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(7, 5); err == nil {
		t.Fatal("expected query length mismatch error")
	}
	if err := (Cigar{{OpMatch, 0}}).Validate(0, 0); err == nil {
		t.Fatal("expected zero-length element error")
	}
}

func TestTracebackBadEndpoint(t *testing.T) {
	sc := DefaultScoring()
	_, mx := NaiveExtend([]byte{0, 1}, []byte{0, 1}, 10, sc)
	if _, err := Traceback(mx, sc, 99, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := Traceback(mx, sc, 2, 1); err == nil {
		// cell (2,1) is alive here? If alive, pick a dead one instead.
		if mx.H[2][1] > 0 {
			t.Skip("cell alive in this construction")
		}
		t.Fatal("expected dead-cell error")
	}
}
