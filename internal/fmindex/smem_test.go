package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
)

// specSMEMs is the brute-force specification SMEMs must meet exactly:
// the longest match starting at each query position (never across an
// ambiguous code, never onto the separator), kept when it ends past
// every match starting earlier and is at least MinLen long, with its
// total occurrence count and its sorted positions capped at MaxOcc.
func specSMEMs(text, q []byte, cfg SMEMConfig) []MEM {
	var out []MEM
	bestEnd := -1
	for i := range q {
		l := 0
		for t := range text {
			n := 0
			for i+n < len(q) && t+n < len(text) && q[i+n] <= 3 && q[i+n] == text[t+n] {
				n++
			}
			l = max(l, n)
		}
		if l == 0 || i+l <= bestEnd {
			continue
		}
		bestEnd = i + l
		if l < cfg.MinLen {
			continue
		}
		pos := bruteOccurrences(text, q[i:i+l])
		m := MEM{QBeg: i, Len: l, Occ: len(pos)}
		if cfg.MaxOcc > 0 && len(pos) > cfg.MaxOcc {
			pos = pos[:cfg.MaxOcc]
		}
		m.Positions = pos
		out = append(out, m)
	}
	return out
}

// smemCase decodes raw bytes into an SMEM problem, so the fuzzer and the
// randomized test explore the same space. The text uses the first
// 1+alpha%4 bases plus the separator. Each query byte is a base (top
// bits 00 or 01), a copy of 16 text bases from a position picked by its
// low six bits (10), or an ambiguous code 4 or 5 (11).
func smemCase(textB, queryB []byte, minLen, maxOcc, alpha uint8) (text, q []byte, cfg SMEMConfig) {
	a := 1 + alpha%4
	text = make([]byte, len(textB))
	for i, b := range textB {
		if b%32 == 31 {
			text[i] = Separator
		} else {
			text[i] = b % a
		}
	}
	for _, b := range queryB {
		switch b >> 6 {
		case 0, 1:
			q = append(q, b&3)
		case 2:
			if len(text) > 0 {
				beg := int(b&63) * len(text) / 64
				q = append(q, text[beg:min(beg+16, len(text))]...)
			}
		default:
			q = append(q, 4+b&1)
		}
	}
	return text, q, SMEMConfig{MinLen: int(minLen % 25), MaxOcc: int(maxOcc % 10)}
}

// checkSMEMsSpec fails t unless SMEMs meets specSMEMs on the case.
func checkSMEMsSpec(t *testing.T, text, q []byte, cfg SMEMConfig) {
	t.Helper()
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	got, want := ix.SMEMs(q, cfg), specSMEMs(text, q, cfg)
	if len(got) != len(want) {
		t.Fatalf("text %v query %v cfg %+v: %d SMEMs %v, spec %d %v", text, q, cfg, len(got), spans(got), len(want), spans(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.QBeg != w.QBeg || g.Len != w.Len || g.Occ != w.Occ || !equalInts(g.Positions, w.Positions) {
			t.Fatalf("text %v query %v cfg %+v: SMEM %d = %+v, spec %+v", text, q, cfg, i, g, w)
		}
	}
}

func FuzzSMEMs(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 2, 1, 0}, []byte{0x80, 0x01, 0xa0}, uint8(4), uint8(2), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte{0x85, 0xc0, 0x90, 0x02, 0x88}, uint8(3), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 1, 31}, 40), []byte{0x80, 0x81, 0xc1, 0x82, 0x03}, uint8(0), uint8(9), uint8(2))
	f.Add([]byte{7}, []byte{0x00, 0x03}, uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, textB, queryB []byte, minLen, maxOcc, alpha uint8) {
		if len(textB) > 512 || len(queryB) > 64 {
			return
		}
		text, q, cfg := smemCase(textB, queryB, minLen, maxOcc, alpha)
		checkSMEMsSpec(t, text, q, cfg)
	})
}

// TestSMEMsMatchSpecRandom runs the fuzzer's case space on thousands of
// deterministic random inputs, so plain go test covers it too.
func TestSMEMsMatchSpecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 3000; trial++ {
		textB := randBytes(rng.Intn(300))
		queryB := randBytes(rng.Intn(12))
		text, q, cfg := smemCase(textB, queryB, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		checkSMEMsSpec(t, text, q, cfg)
	}
}

// TestSearchFindsLongestPrefix: at the insertion point, search reports
// the longest prefix of the query occurring in the text, and the
// lower/upper searches bound exactly that prefix's occurrences.
func TestSearchFindsLongestPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		text := randSeq(rng, 100+rng.Intn(300))
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		beg := rng.Intn(len(text) - 20)
		q := append([]byte(nil), text[beg:beg+20]...)
		// Append garbage that (probably) breaks the match.
		q = append(q, randSeq(rng, 10)...)
		_, l := ix.search(q, false)
		if l < 20 {
			t.Fatalf("trial %d: longest match %d < 20 for embedded substring", trial, l)
		}
		// Brute-force the true longest prefix occurring in text.
		want := 0
		for l2 := len(q); l2 >= 1; l2-- {
			if len(bruteOccurrences(text, q[:l2])) > 0 {
				want = l2
				break
			}
		}
		if l != want {
			t.Fatalf("trial %d: longest match %d, brute force %d", trial, l, want)
		}
		lo, _ := ix.search(q[:l], false)
		hi, _ := ix.search(q[:l], true)
		if got := ix.LocateRaw(Interval{int32(lo), int32(hi)}, 0); !equalInts(got, bruteOccurrences(text, q[:l])) {
			t.Fatalf("trial %d: interval locates %v, brute force %v", trial, got, bruteOccurrences(text, q[:l]))
		}
	}
}
