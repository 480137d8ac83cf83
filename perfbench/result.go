package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"seedex/internal/align"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are the metrics a run prints with -trace 0. error_rate
// and wrong_results are printed too, but ride in the result line's
// failed and correct fields: they are 0 on a healthy run.
var endToEndDefs = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_kitem", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// outcomeNames are core.Outcome's names, in workflow order.
var outcomeNames = []string{"pass-full-cover", "pass-s2", "pass-checks", "fail-s1", "fail-e", "fail-edit", "fail-global"}

// perLayerDefs are the metrics a run prints with -trace 1.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{"core.check_self_us_per_job", "us", "lower"},
		{"core.rerun_us_per_job", "us", "lower"},
		{"core.rerun_rate", "share", "lower"},
		{"core.pass_rate", "share", "higher"},
	}
	for _, o := range outcomeNames {
		better := "lower"
		if strings.HasPrefix(o, "pass") {
			better = "higher"
		}
		d = append(d, metricDef{"core.outcome_share." + o, "share", better})
	}
	d = append(d,
		metricDef{"align.kernel_us_per_job", "us", "lower"},
		metricDef{"align.cells_per_job", "cells", "lower"},
	)
	for t, name := range align.TierNames {
		better := "higher"
		if t == align.TierScalar {
			better = "lower"
		}
		d = append(d, metricDef{"align.jobs_share." + name, "share", better})
	}
	return append(d,
		metricDef{"align.demoted_share", "share", "lower"},
		metricDef{"align.solo_share", "share", "lower"},
		metricDef{"align.lane_utilization", "share", "higher"},
		metricDef{"server.wire_decode_us_per_item", "us", "lower"},
		metricDef{"server.wire_encode_us_per_item", "us", "lower"},
		metricDef{"server.overhead_cpu_us_per_item", "us", "lower"},
		metricDef{"server.queue_wait_p50_us", "us", "lower"},
		metricDef{"server.queue_wait_p99_us", "us", "lower"},
		metricDef{"server.batch_occupancy_mean", "jobs", "higher"},
		metricDef{"server.batches_per_kitem", "count", "lower"},
		metricDef{"server.failed_requests", "count", "lower"},
		metricDef{"bwamem.map_us_per_read", "us", "lower"},
		metricDef{"bwamem.seed_us_per_read", "us", "lower"},
		metricDef{"bwamem.extend_us_per_read", "us", "lower"},
		metricDef{"bwamem.self_us_per_read", "us", "lower"},
		metricDef{"bwamem.extensions_per_read", "count", "lower"},
		metricDef{"bwamem.mapped_share", "share", "higher"},
		metricDef{"refstore.build_s", "s", "lower"},
		metricDef{"refstore.load_s", "s", "lower"},
		metricDef{"refstore.warmup_s", "s", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
		metricDef{"bench.layer_table_valid", "bool", "higher"},
	)
}()

// endToEnd holds the untraced measurement.
type endToEnd struct {
	throughput, p50, p99, cpuPerK, errorRate, setup, rss float64
	stealPct                                             float64
	samples, wrong                                       int
}

func (e endToEnd) values() map[string]float64 {
	return map[string]float64{
		"throughput_per_s": e.throughput,
		"latency_p50_ms":   e.p50,
		"latency_p99_ms":   e.p99,
		"cpu_ms_per_kitem": e.cpuPerK,
		"rss_peak_mb":      e.rss,
		"setup_s":          e.setup,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies what a result measured. Two results compare
// only when every field but Commit matches.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	ReadLen    int     `json:"read_len"`
	RefLen     int     `json:"ref_len"`
	Items      int     `json:"items"` // problems (extend) or reads (map)
	Requests   int     `json:"requests"`
	BodyHash   string  `json:"body_hash"`
	Band       int     `json:"band"`
	Mode       string  `json:"mode"`
	MaxBatch   int     `json:"max_batch"`
	FlushUs    float64 `json:"flush_us"`
	Clients    int     `json:"clients"`
	PerRequest int     `json:"items_per_request"`
	Seconds    int     `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	// Commit is a content hash of the checkout's Go sources (the
	// checkout need not be a git repository).
	Commit string `json:"commit"`
}

// newFingerprint stamps a run; max-batch and flush are read back from
// the server's /metrics config echo rather than assumed.
func newFingerprint(cfg runConfig, in *inputs, doc metricsDoc, commit string) fingerprint {
	return fingerprint{
		Workload: in.w.Name, Seed: cfg.seed, ReadLen: in.w.ReadLen, RefLen: in.w.RefLen,
		Items: in.items(), Requests: len(in.requests), BodyHash: in.bodyHash,
		Band: band, Mode: in.w.Mode, MaxBatch: doc.Config.MaxBatch, FlushUs: doc.Config.FlushUs,
		Clients: clients, PerRequest: in.w.PerReq, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit,
	}
}

// sourceID hashes every Go source and module file under root (skipping
// dot-directories, where build output lives).
func sourceID(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// result is one run's record, written to a file and summarised on stdout.
type result struct {
	Workload    string                 `json:"workload"`
	Trace       bool                   `json:"trace"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Wrong       int                    `json:"wrong_results"`
	ErrorRate   float64                `json:"error_rate"`
	Samples     int                    `json:"latency_samples"`
	StealPct    float64                `json:"host_steal_pct"`
	SpanFile    string                 `json:"span_file,omitempty"`

	E2E    endToEnd           `json:"-"`
	Layers map[string]float64 `json:"-"`
}

// finish fills Metrics with the set the run reports.
func (r *result) finish() {
	defs, vals := endToEndDefs, r.E2E.values()
	if r.Trace {
		defs, vals = perLayerDefs, r.Layers
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	r.ErrorRate, r.Samples, r.StealPct = r.E2E.errorRate, r.E2E.samples, r.E2E.stealPct
}

func (r *result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable table, then the result line as the
// last line of output.
func (r *result) print(w io.Writer) {
	fp, _ := json.Marshal(r.Fingerprint)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	fmt.Fprintf(w, "%s end-to-end (%d latency samples; the hypervisor stole %.1f%% of host CPU time meanwhile):\n",
		r.Workload, r.E2E.samples, r.E2E.stealPct)
	vals := r.E2E.values()
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (lower is better)\n", "error_rate", r.E2E.errorRate, "share")
	fmt.Fprintf(w, "  %-34s %14d %-6s (lower is better)\n", "wrong_results", r.E2E.wrong, "count")
	if r.Trace {
		fmt.Fprintf(w, "%s per-layer (spans in %s):\n", r.Workload, r.SpanFile)
		for _, d := range perLayerDefs {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s is better)\n", d.Name, r.Layers[d.Name], d.Unit, d.Better)
		}
		if r.Layers["bench.layer_table_valid"] == 0 {
			fmt.Fprintln(w, "  per-layer table INVALID: replayed compute per item exceeds served CPU per item")
		}
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Wrong == 0, r.Attempted, r.Failed, r.Metrics}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

// servedPhases is what the served phases contribute to the per-layer table.
type servedPhases struct {
	traced       phaseResult
	index        indexTimes
	cpuPerItem   float64 // seconds of server CPU per item, untraced phase
	untracedTput float64
}

// perLayer derives the per-layer metrics from the replay's spans and
// counts, and from the server's /metrics deltas over the traced phase.
func perLayer(in *inputs, lt map[string]layerTime, n replayCounts, sv servedPhases) map[string]float64 {
	before, after := sv.traced.before, sv.traced.after
	m := map[string]float64{}
	us := func(name string, per int) float64 { return ratio(lt[name].Total.Seconds()*1e6, float64(per)) }

	// core and align, from the check replay.
	m["align.kernel_us_per_job"] = us(spanKernel, n.jobs)
	m["align.cells_per_job"] = ratio(float64(n.cells), float64(n.jobs))
	m["core.check_self_us_per_job"] = us(spanCheck, n.jobs) - m["align.kernel_us_per_job"]
	m["core.rerun_us_per_job"] = us(spanRerun, n.jobs)

	// core outcome counters, from the served checks.
	if c0, c1 := before.json.Checks, after.json.Checks; c0 != nil && c1 != nil {
		total := float64(c1.Total - c0.Total)
		m["core.pass_rate"] = ratio(float64(c1.Passed-c0.Passed), total)
		m["core.rerun_rate"] = ratio(float64(c1.Reruns-c0.Reruns), total)
		for _, o := range outcomeNames {
			m["core.outcome_share."+o] = ratio(float64(c1.Outcomes[o]-c0.Outcomes[o]), total)
		}
	}

	// align tier mix, from the kernel telemetry families.
	d := func(series string) float64 { return after.prom[series] - before.prom[series] }
	var jobs, demoted, lanes, capacity float64
	for t, name := range align.TierNames {
		tier := `{tier="` + name + `"}`
		jobs += d("seedex_kernel_jobs_total" + tier)
		demoted += d("seedex_kernel_demoted_total" + tier)
		lanes += d("seedex_kernel_lanes_total" + tier)
		capacity += d("seedex_kernel_groups_total"+tier) * float64(align.LaneWidth(t))
	}
	for _, name := range align.TierNames {
		m["align.jobs_share."+name] = ratio(d(`seedex_kernel_jobs_total{tier="`+name+`"}`), jobs)
	}
	m["align.demoted_share"] = ratio(demoted, jobs)
	m["align.solo_share"] = ratio(d("seedex_kernel_solo_total"), jobs)
	m["align.lane_utilization"] = ratio(lanes, capacity)

	// server: wire replay, queueing and batching deltas, CPU overhead.
	m["server.wire_decode_us_per_item"] = us(spanDecode, n.wireItems)
	m["server.wire_encode_us_per_item"] = us(spanEncode, n.wireItems)
	compute := us(spanCheck, n.jobs) + m["core.rerun_us_per_job"]
	if in.w.isMap() {
		compute = us(spanMap, n.reads)
	}
	m["server.overhead_cpu_us_per_item"] = sv.cpuPerItem*1e6 - compute
	if m["server.overhead_cpu_us_per_item"] >= 0 {
		m["bench.layer_table_valid"] = 1
	}
	qw := histDelta(before.prom, after.prom, "seedex_queue_wait_seconds")
	m["server.queue_wait_p50_us"] = qw.quantile(0.50) * 1e6
	m["server.queue_wait_p99_us"] = qw.quantile(0.99) * 1e6
	m["server.batch_occupancy_mean"] = ratio(d("seedex_batch_occupancy_sum"), d("seedex_batch_occupancy_count"))
	m["server.batches_per_kitem"] = ratio(1000*float64(after.json.Batches-before.json.Batches),
		float64(after.json.Completed-before.json.Completed))
	m["server.failed_requests"] = float64(after.json.Failed - before.json.Failed)

	// bwamem, from the mapping replay: self time is the Map span minus
	// its seeder and extender children.
	m["bwamem.map_us_per_read"] = us(spanMap, n.reads)
	m["bwamem.seed_us_per_read"] = us(spanSeed, n.reads)
	m["bwamem.extend_us_per_read"] = us(spanExtend, n.reads)
	m["bwamem.self_us_per_read"] = ratio(lt[spanMap].Self.Seconds()*1e6, float64(n.reads))
	m["bwamem.extensions_per_read"] = ratio(float64(n.extensions), float64(n.reads))
	m["bwamem.mapped_share"] = ratio(float64(n.mapped), float64(n.reads))

	m["refstore.build_s"] = sv.index.build.Seconds()
	m["refstore.load_s"] = sv.index.load.Seconds()
	m["refstore.warmup_s"] = sv.index.warmup.Seconds()

	tl := sv.traced.load.kept
	tracedTput := float64(tl.verified) / tl.elapsed.Seconds()
	m["bench.trace_overhead_pct"] = 100 * ratio(sv.untracedTput-tracedTput, sv.untracedTput)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram is a Prometheus histogram's per-bucket counts.
type histogram struct {
	le    []float64 // upper bounds, ascending; the last is +Inf
	count []float64
}

// histDelta reads the cumulative buckets of family name from two scrapes
// and returns the observations between them. The server trims empty
// buckets, so a bucket missing from a scrape holds the scrape's whole
// count when it lies above that scrape's buckets and nothing when below.
func histDelta(before, after map[string]float64, name string) histogram {
	prefix := name + `_bucket{le="`
	set := map[float64]bool{}
	for _, p := range []map[string]float64{before, after} {
		for k := range p {
			if v, ok := strings.CutPrefix(k, prefix); ok {
				le, err := strconv.ParseFloat(strings.TrimSuffix(v, `"}`), 64)
				if err == nil {
					set[le] = true
				}
			}
		}
	}
	var h histogram
	for le := range set {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	cum := func(p map[string]float64, i int) float64 {
		key := prefix + formatLE(h.le[i]) + `"}`
		if v, ok := p[key]; ok {
			return v
		}
		for j := i + 1; j < len(h.le); j++ {
			if _, ok := p[prefix+formatLE(h.le[j])+`"}`]; ok {
				return 0 // a populated bucket lies above: this one was empty
			}
		}
		return p[name+"_count"]
	}
	prev := 0.0
	for i := range h.le {
		c := cum(after, i) - cum(before, i)
		h.count = append(h.count, c-prev)
		prev = c
	}
	return h
}

func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quantile interpolates the q-quantile within its bucket, as the
// server's own histogram quantiles do.
func (h histogram) quantile(q float64) float64 {
	total := 0.0
	for _, c := range h.count {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank, seen, lo := q*total, 0.0, 0.0
	for i, c := range h.count {
		hi := h.le[i]
		if math.IsInf(hi, 1) {
			hi = lo
		}
		if c > 0 && seen+c >= rank {
			return lo + (rank-seen)/c*(hi-lo)
		}
		seen += c
		lo = hi
	}
	return lo
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compare prints the metric changes between two result files, refusing
// results whose fingerprints differ in anything but the commit.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare OLD.json NEW.json")
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := sameFingerprint(rs[0].Fingerprint, rs[1].Fingerprint); err != nil {
		return err
	}
	if rs[0].Trace != rs[1].Trace {
		return fmt.Errorf("cannot compare a traced run with an untraced one")
	}
	fmt.Fprintf(w, "%s seed %d: %s -> %s\n", rs[0].Workload, rs[0].Fingerprint.Seed, rs[0].Fingerprint.Commit, rs[1].Fingerprint.Commit)
	for _, k := range sortedKeys(rs[0].Metrics) {
		a, b := rs[0].Metrics[k], rs[1].Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %14.4f %+8.2f%% %s\n", k, a.Value, b.Value, 100*ratio(b.Value-a.Value, a.Value), a.Unit)
	}
	return nil
}

// sameFingerprint reports the first field, other than Commit, in which
// a and b differ.
func sameFingerprint(a, b fingerprint) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.Name != "Commit" && va.Field(i).Interface() != vb.Field(i).Interface() {
			return fmt.Errorf("fingerprints differ in %s (%v vs %v): the results measured different things",
				f.Tag.Get("json"), va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return nil
}
