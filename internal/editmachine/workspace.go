package editmachine

import "sync"

// Workspace owns the sweep's single DP row so that repeated sweeps on one
// goroutine are allocation-free. The row only grows; it is never shrunk or
// freed. One Workspace serves one goroutine.
type Workspace struct {
	row []int
}

// NewWorkspace returns an empty Workspace; the row is sized lazily.
func NewWorkspace() *Workspace { return &Workspace{} }

// rowBuf returns the sweep row for a query of length n, reset to negInf.
func (ws *Workspace) rowBuf(n int) []int {
	if cap(ws.row) < n+1 {
		ws.row = make([]int, n+1)
	}
	row := ws.row[:n+1]
	for j := range row {
		row[j] = negInf
	}
	return row
}

// wsPool backs the pooled SweepCorner/SweepExact entry points. Long-lived
// checking goroutines should hold their own Workspace and call
// SweepCornerWS directly.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// SweepCornerWS is SweepCorner with caller-owned scratch; allocation-free
// once ws has warmed to the workload's maximum query length.
func SweepCornerWS(ws *Workspace, query, target []byte, w, init int, rx Relaxed) RegionResult {
	return sweepWS(ws, query, target, w, rx, func(i int) int {
		if i == w+1 {
			return init
		}
		return negInf
	}, nil)
}
