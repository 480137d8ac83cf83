package fmindex

// MEM is a maximal exact match between a query and the indexed text.
type MEM struct {
	QBeg, Len int   // query span [QBeg, QBeg+Len)
	Positions []int // forward-strand text positions of the occurrences (capped)
	// RCPositions are reverse-strand hits (filled by the bidirectional
	// FMD search only): text positions where the reverse complement of
	// the matched query segment occurs.
	RCPositions []int
	// Occ is the total occurrence count before capping — forward-only
	// for the suffix-array search, both strands for the FMD search.
	Occ int
}

// SMEMConfig controls SMEM generation.
type SMEMConfig struct {
	// MinLen discards matches shorter than this (BWA-MEM: 19).
	MinLen int
	// MaxOcc caps the occurrences reported per SMEM (BWA-MEM: ~500;
	// highly repetitive seeds are down-sampled).
	MaxOcc int
}

// DefaultSMEMConfig mirrors BWA-MEM's defaults.
func DefaultSMEMConfig() SMEMConfig { return SMEMConfig{MinLen: 19, MaxOcc: 50} }

// SMEMs computes the supermaximal exact matches of q against the index:
// maximal matches not contained in any other maximal match of the query.
// Its specification is per position: the longest match starting at each
// query position, kept when it ends past every match starting earlier
// (the containment filter) and is at least MinLen long. This produces
// the same seed set BWA-MEM's bidirectional SMEM walk generates.
//
// It meets that specification without searching at every position. The
// match end i+l(i) never decreases along the query, because a suffix of
// a match is a match, so position i emits exactly when l(i) >= MinLen and
// its end passes the end of the match at i-1. Backward searches (cheap
// LF steps) find the next position that can emit; only there does a
// suffix-array search measure the match, and only for emitted matches is
// the occurrence interval located.
func (ix *Index) SMEMs(q []byte, cfg SMEMConfig) []MEM {
	var mems []MEM
	k := max(cfg.MinLen, 1)
	for s := 0; s < len(q); {
		if q[s] > 3 { // ambiguous base: no exact match crosses it
			s++
			continue
		}
		// Matches stop at the next ambiguous base: codes >= 4 never
		// match, even where the indexed text contains the separator code.
		limit := s
		for limit < len(q) && q[limit] <= 3 {
			limit++
		}
		mems = ix.segmentSMEMs(mems, q[:limit], s, k, cfg.MaxOcc)
		s = limit
	}
	return mems
}

// segmentSMEMs appends the SMEMs of at least k bases that start in
// q[j:]. q[j:] holds no ambiguous base and j starts its segment, so no
// earlier match reaches into it.
func (ix *Index) segmentSMEMs(mems []MEM, q []byte, j, k, maxOcc int) []MEM {
	limit := len(q)
	// Here the match at j-1, if any, is shorter than k bases, so the
	// first position from j on whose match reaches k bases emits.
	for j+k <= limit {
		// If q[p:j+k] is the longest suffix occurring, no start in [j, p)
		// reaches k bases.
		if p := ix.matchStart(q[:j+k], j); p > j {
			j = p
			continue
		}
		for {
			_, l := ix.search(q[j:], false)
			mems = append(mems, ix.mem(q[j:j+l], j, maxOcc))
			end := j + l
			if end == limit {
				return mems
			}
			// Starts after j match at least to end; those before the
			// first start whose match passes end stop exactly there and
			// are contained. q[j:end+1] does not occur, so that start is
			// after j.
			j = ix.matchStart(q[:end+1], j+1)
			if end+1-j < k {
				break // its match may still reach k bases: search again
			}
		}
	}
	return mems
}

// matchStart returns the smallest p >= from such that q[p:] occurs in
// the text, by backward search from the end of q.
func (ix *Index) matchStart(q []byte, from int) int {
	iv := Interval{0, int32(len(ix.bwt))}
	for p := len(q); p > from; p-- {
		if iv = ix.Backward(iv, q[p-1]); iv.Size() <= 0 {
			return p
		}
	}
	return from
}

// mem locates the occurrences of the match p starting at query position
// qbeg.
func (ix *Index) mem(p []byte, qbeg, maxOcc int) MEM {
	lo, _ := ix.search(p, false)
	hi, _ := ix.search(p, true)
	iv := Interval{int32(lo), int32(hi)}
	return MEM{QBeg: qbeg, Len: len(p), Positions: ix.LocateRaw(iv, maxOcc), Occ: iv.Size()}
}
