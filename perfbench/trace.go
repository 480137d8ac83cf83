package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Spans of one request or read share Trace; Parent is the ID
// of the enclosing span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// recorder keeps spans in memory for one goroutine; they are written
// out when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // indices of unfinished spans, innermost last
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string, trace int) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: time.Since(r.epoch)})
}

// end closes the innermost open span.
func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Dur = time.Since(r.epoch) - r.spans[i].Start
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus their children's
}

// aggregate sums spans by name; a span's self time is its duration
// minus the durations of its direct children.
func (r *recorder) aggregate() map[string]layerTime {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.Dur
		lt.Self += s.Dur - child[s.ID]
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes every recorder's spans as NDJSON, one span per line,
// tagged with the recorder's index as its thread.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for tid, r := range recs {
		for _, s := range r.spans {
			line := struct {
				Thread int `json:"thread"`
				span
			}{tid, s}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
