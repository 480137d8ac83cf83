package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seedex/internal/server"
)

// small shrinks a workload so tests build their inputs in well under a
// second.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.RefLen, w.Reads = 40_000, 80
	return w
}

func smallInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	in, err := buildInputs(small(t, name), seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.requests) < 2 {
		t.Fatalf("only %d requests", len(in.requests))
	}
	return in
}

// fakeServer answers every request with its full-band reply, except that
// the first reply passes through corrupt.
func fakeServer(t *testing.T, in *inputs, corrupt func(reply any)) *httptest.Server {
	byBody := map[string]request{}
	for _, r := range in.requests {
		byBody[string(r.body)] = r
	}
	var first atomic.Bool
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, ok := byBody[string(body)]
		if !ok {
			http.Error(w, "unknown body", http.StatusBadRequest)
			return
		}
		reply := in.referenceReply(req)
		if first.CompareAndSwap(false, true) {
			corrupt(reply)
		}
		json.NewEncoder(w).Encode(reply)
	}))
}

func TestCorruptedReplyIsCaught(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(reply any)
		wrong    int
	}{
		{"extend-strict", func(r any) { r.(server.ExtendResponse).Results[3].GlobalT++ }, 1},
		{"extend-paper", func(r any) { r.(server.ExtendResponse).Results[3].LocalQ++ }, 1},
		// Paper mode guarantees only the local fields.
		{"extend-paper", func(r any) { r.(server.ExtendResponse).Results[3].Global++ }, 0},
		// Cells and the rerun flag are diagnostics, never compared.
		{"extend-strict", func(r any) { r.(server.ExtendResponse).Results[3].Cells++ }, 0},
		{"map", func(r any) { r.(server.MapResponse).Results[1].Sam += "x" }, 1},
		{"map", func(r any) { r.(server.MapResponse).Results[0].MapQ++ }, 1},
	}
	for _, c := range cases {
		in := smallInputs(t, c.workload, 3)
		ts := fakeServer(t, in, c.corrupt)
		g := newLoadGen(in, strings.TrimPrefix(ts.URL, "http://"))
		ph, err := g.run(context.Background(), 200*time.Millisecond, nil, nil)
		g.close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		res := ph.all
		if res.attempted < 2 {
			t.Fatalf("%s: only %d requests sent", c.workload, res.attempted)
		}
		if res.wrong != c.wrong || res.failed != c.wrong {
			t.Errorf("%s: wrong=%d failed=%d of %d requests, want %d wrong and %d failed",
				c.workload, res.wrong, res.failed, res.attempted, c.wrong, c.wrong)
		}
	}
}

// TestStolenWindowsAreNotCounted feeds the load phase a host whose
// hypervisor takes half the CPU during the first window only: that
// window's requests are checked but not measured, and the phase runs on
// until a clean window has been measured.
func TestStolenWindowsAreNotCounted(t *testing.T) {
	in := smallInputs(t, "extend-strict", 3)
	ts := fakeServer(t, in, func(any) {})
	defer ts.Close()
	g := newLoadGen(in, strings.TrimPrefix(ts.URL, "http://"))
	defer g.close()
	calls := int64(0)
	sample := func() (time.Duration, int64, int64, error) {
		steal := int64(0)
		if calls > 0 {
			steal = 100 // all of it in the first window
		}
		calls++
		return 0, steal, 200 * (calls - 1), nil
	}
	ph, err := g.run(context.Background(), windowLen, nil, sample)
	if err != nil {
		t.Fatal(err)
	}
	if ph.windows < 2 || ph.counted != ph.windows-1 {
		t.Errorf("measured %d of %d windows, want all but the first", ph.counted, ph.windows)
	}
	if ph.kept.attempted == 0 || ph.kept.attempted >= ph.all.attempted {
		t.Errorf("counted %d of %d requests, want some but not all", ph.kept.attempted, ph.all.attempted)
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	for _, name := range []string{"extend-strict", "map"} {
		a, b, c := smallInputs(t, name, 7), smallInputs(t, name, 7), smallInputs(t, name, 8)
		if a.bodyHash != b.bodyHash {
			t.Errorf("%s: seed 7 gave body hashes %s and %s", name, a.bodyHash, b.bodyHash)
		}
		if a.bodyHash == c.bodyHash {
			t.Errorf("%s: seeds 7 and 8 gave the same body hash %s", name, a.bodyHash)
		}
	}
}

func TestFingerprintsMustMatch(t *testing.T) {
	a := fingerprint{Workload: "map", Seed: 1, BodyHash: "abc", Commit: "tree:1"}
	b := a
	b.Commit = "tree:2"
	if err := sameFingerprint(a, b); err != nil {
		t.Errorf("commits may differ: %v", err)
	}
	b.Seed = 2
	if err := sameFingerprint(a, b); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("different seeds compared: %v", err)
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	// 10 observations before, in the 1..1 and 2..3 buckets; 100 more
	// after, all in 4..7. The server trims empty buckets, so the scrapes
	// list different bucket sets.
	before := parseProm([]byte("h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 10\nh_bucket{le=\"+Inf\"} 10\nh_count 10\n"))
	after := parseProm([]byte("h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 10\nh_bucket{le=\"7\"} 110\nh_bucket{le=\"+Inf\"} 110\nh_count 110\n"))
	h := histDelta(before, after, "h")
	if got := h.quantile(0.5); got < 3 || got > 7 {
		t.Errorf("median of the delta = %v, want within the 4..7 bucket", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists the command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ws []struct{ Name, Why string }
	for _, w := range workloads {
		ws = append(ws, struct{ Name, Why string }{w.Name, w.Why})
	}
	if !reflect.DeepEqual(doc.Workloads, ws) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", doc.Workloads, ws)
	}
	conv := func(ds []metricDef) []struct{ Name, Unit, Better string } {
		var out []struct{ Name, Unit, Better string }
		for _, d := range ds {
			out = append(out, struct{ Name, Unit, Better string }{d.Name, d.Unit, d.Better})
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, conv(endToEndDefs)) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", doc.EndToEnd, conv(endToEndDefs))
	}
	if !reflect.DeepEqual(doc.PerLayer, conv(perLayerDefs)) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", doc.PerLayer, conv(perLayerDefs))
	}
}
