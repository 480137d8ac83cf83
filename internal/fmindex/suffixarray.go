// Package fmindex implements the seeding substrate: a suffix array, the
// Burrows-Wheeler transform, an occurrence-sampled FM index with backward
// search, longest-match queries, and SMEM (supermaximal exact match)
// generation — the same seeding primitives BWA-MEM builds on (§II-A,
// §VIII of the paper).
package fmindex

import "sort"

// BuildSA constructs the suffix array of s (base codes) by prefix
// doubling in O(n log^2 n); a virtual empty suffix is NOT included.
func BuildSA(s []byte) []int32 {
	n := len(s)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	rank := make([]int32, n)
	tmp := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
		rank[i] = int32(s[i])
	}
	cmp := func(k int32) func(a, b int32) bool {
		return func(a, b int32) bool {
			if rank[a] != rank[b] {
				return rank[a] < rank[b]
			}
			ra, rb := int32(-1), int32(-1)
			if a+k < int32(n) {
				ra = rank[a+k]
			}
			if b+k < int32(n) {
				rb = rank[b+k]
			}
			return ra < rb
		}
	}
	for k := int32(1); ; k *= 2 {
		less := cmp(k)
		sort.Slice(sa, func(i, j int) bool { return less(sa[i], sa[j]) })
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			if less(sa[i-1], sa[i]) {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[n-1]]) == n-1 {
			break
		}
	}
	return sa
}

// search binary-searches the suffix array for p, with Manber and Myers'
// LCP acceleration: each comparison starts at the shorter of p's common
// prefixes with the two current bounds, since every suffix sorted between
// them shares that prefix. With upper false it returns p's insertion
// point, the first row whose suffix is not less than p; with upper true,
// the first row past every suffix that starts with p. lcp is the longest
// common prefix of p with the suffixes on either side of the returned
// row; at the insertion point that is the length of the longest prefix of
// p occurring in the text.
func (ix *Index) search(p []byte, upper bool) (row, lcp int) {
	text, sa := ix.text, ix.sa
	// Virtual bounds: row lo = -1 sorts below p, row hi = len(sa) at or
	// past it; neither shares a prefix with p.
	lo, hi := -1, len(sa)
	lcpLo, lcpHi := 0, 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		s := text[sa[mid]:]
		c := min(lcpLo, lcpHi)
		for c < len(p) && c < len(s) && p[c] == s[c] {
			c++
		}
		var past bool // row mid is at or past the answer
		switch {
		case c == len(p): // s starts with p
			past = !upper
		case c == len(s): // s is a proper prefix of p, so s < p
			past = false
		default:
			past = p[c] < s[c]
		}
		if past {
			hi, lcpHi = mid, c
		} else {
			lo, lcpLo = mid, c
		}
	}
	return hi, max(lcpLo, lcpHi)
}
