package align

import "fmt"

// Traceback reconstructs the optimal alignment path ending at cell
// (ti, qj) of the naive DP matrices, walking back to the seed cell (0,0).
// The returned CIGAR is ordered start-to-end and consumes exactly qj query
// and ti target bases.
//
// Tracing back on the host once per read (not per extension) is exactly
// the division of labour the paper adopts (§II-A): the accelerator returns
// scores only, and the single best-scoring extension is traced on the CPU.
func Traceback(mx *Matrices, sc Scoring, ti, qj int) (Cigar, error) {
	if ti < 0 || ti > mx.Tlen || qj < 0 || qj > mx.Qlen {
		return nil, fmt.Errorf("align: traceback endpoint (%d,%d) outside matrix %dx%d", ti, qj, mx.Tlen, mx.Qlen)
	}
	var c Cigar
	i, j := ti, qj
	const (
		stH = iota
		stE
		stF
	)
	state := stH
	for i > 0 || j > 0 {
		switch state {
		case stH:
			h := mx.H[i][j]
			if h <= 0 {
				return nil, fmt.Errorf("align: traceback entered dead cell (%d,%d)", i, j)
			}
			switch {
			case i == 0:
				// First-row init: one insertion gap from the origin.
				c = c.append(OpIns, j)
				j = 0
			case j == 0:
				// First-column init: one deletion gap from the origin.
				c = c.append(OpDel, i)
				i = 0
			case h == mx.E[i][j]:
				state = stE
			case h == mx.F[i][j]:
				state = stF
			default:
				c = c.append(OpMatch, 1)
				i--
				j--
			}
		case stE:
			// E(i,j) came from either opening (H(i-1,j)-go-ge) or
			// extending (E(i-1,j)-ge) a vertical gap.
			c = c.append(OpDel, 1)
			ev := mx.E[i][j]
			if i >= 2 && ev == mx.E[i-1][j]-sc.GapExtend {
				i--
				// remain in stE
			} else {
				i--
				state = stH
			}
		case stF:
			c = c.append(OpIns, 1)
			fv := mx.F[i][j]
			if j >= 2 && fv == mx.F[i][j-1]-sc.GapExtend {
				j--
			} else {
				j--
				state = stH
			}
		}
	}
	return c.Reverse(), nil
}

// UsedBand measures the band a given extension actually needs: the
// smallest w for which the banded kernel reproduces the full-width result
// exactly (scores and positions). This is the "Used" series of the paper's
// Figure 2, determined by binary search over w.
func UsedBand(query, target []byte, h0 int, sc Scoring) int {
	full := Extend(query, target, h0, sc)
	eq := func(w int) bool {
		b, _ := ExtendBanded(query, target, h0, sc, w)
		return b.Local == full.Local && b.LocalT == full.LocalT && b.LocalQ == full.LocalQ &&
			b.Global == full.Global && b.GlobalT == full.GlobalT
	}
	hi := len(query)
	if len(target) > hi {
		hi = len(target)
	}
	lo := 0
	if eq(lo) {
		return 0
	}
	for !eq(hi) {
		// The full result can depend on cells outside |i-j| <= max(N,M)
		// only in degenerate cases; widen defensively.
		hi *= 2
		if hi > len(query)+len(target)+1 {
			return hi
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if eq(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
