package fmindex

import (
	"fmt"
	"sort"
)

// occRate is the occurrence-table sampling interval (one checkpoint per
// occRate BWT positions; intermediate counts are scanned on demand).
const occRate = 64

// alphabet size including the sentinel (code 0 internally; bases are
// shifted up by one) and the sequence separator (code 4 in text space,
// 5 shifted) used by the FMD index to keep the forward and
// reverse-complement halves from matching across their junction.
const sigma = 6

// Separator is the text-space code of the never-matching sequence
// separator (the same value genome.N uses, which is also never matched).
const Separator byte = 4

// Index is an FM index (BWT + sampled occurrence table + full suffix
// array) over a base-code genome. Ambiguous bases must be sanitized by
// the caller (Sanitize) before indexing, as BWA does; the separator code
// 4 is allowed and never matches a pattern base.
type Index struct {
	text []byte  // original base codes, 0..3
	sa   []int32 // suffix array of text (no sentinel entry)
	bwt  []byte  // BWT over shifted alphabet (0 = sentinel)
	c    [sigma + 1]int32
	occ  [][sigma]int32
}

// Sanitize replaces ambiguous bases (code >= 4) with a deterministic
// regular base, mirroring BWA's index-time N handling. It returns the
// number of replacements.
func Sanitize(seq []byte) int {
	n := 0
	for i, c := range seq {
		if c >= 4 {
			seq[i] = byte(i) & 3
			n++
		}
	}
	return n
}

// New builds the index. Text must contain only codes 0..3 plus the
// separator code 4.
func New(text []byte) (*Index, error) {
	for i, c := range text {
		if c > Separator {
			return nil, fmt.Errorf("fmindex: unsanitized base %d at %d", c, i)
		}
	}
	ix := &Index{text: text, sa: BuildSA(text)}
	ix.deriveFromSA()
	return ix, nil
}

// deriveFromSA reconstructs the BWT, cumulative counts and occurrence
// checkpoints from text+sa (used by New and by index deserialization).
func (ix *Index) deriveFromSA() {
	text := ix.text
	n := len(text)
	// BWT with an implicit sentinel: conceptually the suffix array of
	// text+"$" is [n] ++ sa (the empty suffix sorts first). bwt[0] is the
	// char before the sentinel (text[n-1]); bwt[i+1] derives from sa[i].
	ix.bwt = make([]byte, n+1)
	if n > 0 {
		ix.bwt[0] = text[n-1] + 1
	}
	for i, p := range ix.sa {
		if p == 0 {
			ix.bwt[i+1] = 0 // sentinel
		} else {
			ix.bwt[i+1] = text[p-1] + 1
		}
	}
	// Cumulative counts.
	var cnt [sigma]int32
	for _, b := range ix.bwt {
		cnt[b]++
	}
	ix.c = [sigma + 1]int32{}
	for a := 1; a <= sigma; a++ {
		ix.c[a] = ix.c[a-1] + cnt[a-1]
	}
	// Occurrence checkpoints (including the one at len(bwt) when the
	// length is a checkpoint multiple, which occAt may address).
	ix.occ = make([][sigma]int32, len(ix.bwt)/occRate+1)
	var run [sigma]int32
	for i, b := range ix.bwt {
		if i%occRate == 0 {
			ix.occ[i/occRate] = run
		}
		run[b]++
	}
	if len(ix.bwt)%occRate == 0 {
		ix.occ[len(ix.bwt)/occRate] = run
	}
}

// Len returns the text length.
func (ix *Index) Len() int { return len(ix.text) }

// Text returns the indexed text (shared, do not modify).
func (ix *Index) Text() []byte { return ix.text }

// SA returns the suffix array (shared, do not modify). Together with
// Text it is the persisted half of the index; everything else derives.
func (ix *Index) SA() []int32 { return ix.sa }

// occAt returns Occ(b, i): occurrences of b in bwt[0:i].
func (ix *Index) occAt(b byte, i int32) int32 {
	cp := int(i) / occRate
	n := ix.occ[cp][b]
	for k := cp * occRate; k < int(i); k++ {
		if ix.bwt[k] == b {
			n++
		}
	}
	return n
}

// Interval is a half-open SA interval [Lo, Hi) in the sentinel-augmented
// suffix array; Hi-Lo is the occurrence count.
type Interval struct{ Lo, Hi int32 }

// Size returns the number of occurrences.
func (iv Interval) Size() int { return int(iv.Hi - iv.Lo) }

// Backward extends the interval of pattern P to the interval of aP via
// one LF-mapping step (a is a base code 0..3).
func (ix *Index) Backward(iv Interval, a byte) Interval {
	b := a + 1
	lo := ix.c[b] + ix.occAt(b, iv.Lo)
	hi := ix.c[b] + ix.occAt(b, iv.Hi)
	return Interval{lo, hi}
}

// Count returns the SA interval of pattern p (codes 0..3) via backward
// search; a zero-size interval means no occurrences.
func (ix *Index) Count(p []byte) Interval {
	iv := Interval{0, int32(len(ix.bwt))}
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] > 3 {
			return Interval{}
		}
		iv = ix.Backward(iv, p[i])
		if iv.Size() <= 0 {
			return Interval{}
		}
	}
	return iv
}

// Locate returns the text positions of an interval (at most max; pass
// max <= 0 for all), in ascending order.
func (ix *Index) Locate(iv Interval, max int) []int {
	var out []int
	for r := iv.Lo; r < iv.Hi; r++ {
		if r == 0 {
			continue // the sentinel row: the empty suffix
		}
		out = append(out, int(ix.sa[r-1]))
	}
	sort.Ints(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// LocateRaw returns the text positions of a raw (non-augmented) suffix
// array interval (at most max, ascending; max <= 0 for all).
func (ix *Index) LocateRaw(iv Interval, max int) []int {
	var out []int
	for r := iv.Lo; r < iv.Hi; r++ {
		out = append(out, int(ix.sa[r]))
	}
	sort.Ints(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
