package fmindex

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"seedex/internal/genome"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// bruteOccurrences finds all positions of p in t by scanning.
func bruteOccurrences(t, p []byte) []int {
	var out []int
	for i := 0; i+len(p) <= len(t); i++ {
		if bytes.Equal(t[i:i+len(p)], p) {
			out = append(out, i)
		}
	}
	return out
}

func TestSuffixArraySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		s := randSeq(rng, 1+rng.Intn(500))
		sa := BuildSA(s)
		if len(sa) != len(s) {
			t.Fatalf("sa length %d != %d", len(sa), len(s))
		}
		for i := 1; i < len(sa); i++ {
			if bytes.Compare(s[sa[i-1]:], s[sa[i]:]) >= 0 {
				t.Fatalf("trial %d: suffixes %d,%d out of order", trial, i-1, i)
			}
		}
	}
}

func TestCountAndLocateAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randSeq(rng, 50+rng.Intn(400))
		ix, err := New(text)
		if err != nil {
			t.Log(err)
			return false
		}
		for trial := 0; trial < 20; trial++ {
			var p []byte
			if rng.Intn(3) == 0 {
				p = randSeq(rng, 1+rng.Intn(8)) // random, often absent
			} else {
				beg := rng.Intn(len(text))
				end := beg + 1 + rng.Intn(12)
				if end > len(text) {
					end = len(text)
				}
				p = text[beg:end] // guaranteed present
			}
			want := bruteOccurrences(text, p)
			iv := ix.Count(p)
			if iv.Size() != len(want) {
				t.Logf("seed %d: Count(%v) = %d, want %d", seed, p, iv.Size(), len(want))
				return false
			}
			got := ix.Locate(iv, 0)
			if len(got) != len(want) {
				t.Logf("seed %d: Locate returned %d, want %d", seed, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d: positions %v != %v", seed, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSMEMsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		text := randSeq(rng, 200+rng.Intn(300))
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		// A query stitched from two text windows with a mutation.
		a, b := rng.Intn(len(text)-40), rng.Intn(len(text)-40)
		q := append([]byte(nil), text[a:a+30]...)
		q = append(q, text[b:b+30]...)
		q[15] = (q[15] + 1) % 4
		cfg := SMEMConfig{MinLen: 5, MaxOcc: 0}
		mems := ix.SMEMs(q, cfg)
		// Brute force: longest match starting at each i, then containment
		// filter.
		type span struct{ beg, end int }
		var want []span
		bestEnd := -1
		for i := range q {
			l := 0
			for l2 := len(q) - i; l2 >= 1; l2-- {
				if len(bruteOccurrences(text, q[i:i+l2])) > 0 {
					l = l2
					break
				}
			}
			if l >= cfg.MinLen && i+l > bestEnd {
				want = append(want, span{i, i + l})
			}
			if i+l > bestEnd {
				bestEnd = i + l
			}
		}
		if len(mems) != len(want) {
			t.Fatalf("trial %d: %d SMEMs, want %d", trial, len(mems), len(want))
		}
		for i, m := range mems {
			if m.QBeg != want[i].beg || m.QBeg+m.Len != want[i].end {
				t.Fatalf("trial %d: SMEM %d = [%d,%d), want [%d,%d)", trial, i, m.QBeg, m.QBeg+m.Len, want[i].beg, want[i].end)
			}
			if m.Occ != len(bruteOccurrences(text, q[m.QBeg:m.QBeg+m.Len])) {
				t.Fatalf("trial %d: SMEM %d occ %d wrong", trial, i, m.Occ)
			}
			if !sort.IntsAreSorted(m.Positions) {
				t.Fatalf("positions unsorted")
			}
		}
	}
}

func TestSMEMSkipsAmbiguous(t *testing.T) {
	text := randSeq(rand.New(rand.NewSource(6)), 300)
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	q := append([]byte(nil), text[10:40]...)
	q[5] = genome.N
	mems := ix.SMEMs(q, SMEMConfig{MinLen: 5, MaxOcc: 10})
	for _, m := range mems {
		for _, c := range q[m.QBeg : m.QBeg+m.Len] {
			if c > 3 {
				t.Fatal("SMEM crosses an ambiguous base")
			}
		}
	}
	if len(mems) == 0 {
		t.Fatal("expected SMEMs on both sides of the N")
	}
}

func TestSanitize(t *testing.T) {
	s := []byte{0, 4, 2, 5, 1}
	n := Sanitize(s)
	if n != 2 {
		t.Fatalf("sanitized %d, want 2", n)
	}
	if _, err := New(s); err != nil {
		t.Fatal(err)
	}
	if _, err := New([]byte{0, 9}); err == nil {
		t.Fatal("expected unsanitized error")
	}
}

func TestMaxOccCap(t *testing.T) {
	// Highly repetitive text.
	text := bytes.Repeat([]byte{0, 1, 2, 3}, 100)
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	mems := ix.SMEMs(q, SMEMConfig{MinLen: 4, MaxOcc: 7})
	if len(mems) == 0 {
		t.Fatal("no SMEMs on repetitive text")
	}
	for _, m := range mems {
		if len(m.Positions) > 7 {
			t.Fatalf("positions not capped: %d", len(m.Positions))
		}
		if m.Occ < len(m.Positions) {
			t.Fatalf("occ %d < reported positions %d", m.Occ, len(m.Positions))
		}
	}
}
