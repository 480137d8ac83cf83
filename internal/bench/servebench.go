package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/driver"
	"seedex/internal/faults"
	"seedex/internal/genome"
	"seedex/internal/obs"
	"seedex/internal/server"
)

// ServeBenchConfig shapes the alignment-service load test: the same
// workload is served under a micro-batching configuration and a
// no-batching control, at increasing client concurrency.
type ServeBenchConfig struct {
	// Band is the SeedEx one-sided band of the served extender.
	Band int
	// MaxBatch/Flush tune the batched configuration (the control always
	// runs MaxBatch=1). Defaults: 64 jobs, 100µs.
	MaxBatch int
	Flush    time.Duration
	// Paper serves the paper's workflow (ModePaper, which guarantees
	// only the local result) instead of the default ModeStrict, which is
	// bit-identical to full band and costs O(n) per job on top of the
	// packed speculation kernel.
	Paper bool
	// JobsPerRequest is the client request size (default 8: each batch
	// coalesces jobs from several requests to fill SWAR lanes).
	JobsPerRequest int
	// Concurrency lists the client counts to sweep (default 4, 16, 32, 64).
	Concurrency []int
	// Duration is the measurement window per point (default 1s).
	Duration time.Duration
	// ChaosRate, when positive, serves through the simulated FPGA device
	// engine with every fault class injecting at this rate. Results stay
	// exact (integrity validation routes faults into host reruns), so the
	// bench then measures the throughput cost of fault tolerance. Chaos
	// implies the strict workflow: the device engine has no paper mode.
	ChaosRate float64
	// ChaosSeed seeds the deterministic fault draws (default 1).
	ChaosSeed int64
	// TraceSample enables the trace-overhead mode: a third configuration
	// ("batched-traced") reruns the batched settings with span tracing at
	// this head-sampling rate (1 in N requests; default 100, i.e. 1%),
	// so the report quantifies what tracing costs in served jobs/s. A
	// fourth configuration ("batched-tail") reruns them with tail-based
	// retention checking out a journey for every request, quantifying the
	// tail-sampling overhead the same way. Negative disables both extra
	// configurations. Chaos runs skip them regardless: they measure the
	// cost of fault tolerance, and fault draws would confound the
	// overhead comparisons.
	TraceSample int
	// Shards lists shard counts to sweep as extra "sharded-N"
	// configurations: the batched settings behind the routing tier, each
	// shard with its own extender. "batched" is the 1-shard point of the
	// curve. Empty (the default) skips the sharded column — opt in from
	// the CLI with -serve-shards.
	Shards []int
	// RoutePolicy names the routing policy for the sharded points
	// (default "least-loaded").
	RoutePolicy string
}

func (c ServeBenchConfig) withDefaults() ServeBenchConfig {
	if c.Band <= 0 {
		c.Band = 21
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Flush <= 0 {
		c.Flush = 100 * time.Microsecond
	}
	if c.JobsPerRequest <= 0 {
		c.JobsPerRequest = 8
	}
	if len(c.Concurrency) == 0 {
		c.Concurrency = []int{4, 16, 32, 64}
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.ChaosRate > 0 && c.ChaosSeed == 0 {
		c.ChaosSeed = 1
	}
	if c.TraceSample == 0 {
		c.TraceSample = 100
	}
	if c.ChaosRate > 0 {
		c.TraceSample = -1
	}
	if c.RoutePolicy == "" {
		c.RoutePolicy = "least-loaded"
	}
	return c
}

// ServePoint is one (configuration, concurrency) measurement.
type ServePoint struct {
	Config      string  `json:"config"` // "batched", "unbatched", "batched-traced", "batched-tail" or "sharded-N"
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	Jobs        int64   `json:"jobs"`
	Rejected    int64   `json:"jobs_rejected"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// Client-observed request latency.
	P50Us float64 `json:"latency_p50_us"`
	P99Us float64 `json:"latency_p99_us"`
	// Server-side batch shape.
	Batches       int64   `json:"batches"`
	MeanOccupancy float64 `json:"batch_occupancy_mean"`
	// Faults carries the device fault-tolerance counters when the point
	// ran under ChaosRate (each point boots a fresh engine, so the
	// counters cover exactly this measurement).
	Faults *faults.Health `json:"faults,omitempty"`
	// Trace carries the tracer's own counters for "batched-traced" points
	// (sampled requests, spans recorded, slow-ring retention).
	Trace *obs.Stats `json:"trace,omitempty"`
}

// ServeGain compares the two configurations at one concurrency.
type ServeGain struct {
	Concurrency int `json:"concurrency"`
	// Gain is batched jobs/s over unbatched jobs/s.
	Gain float64 `json:"throughput_gain"`
}

// ShardScale is one point of the shard scaling curve: a sharded
// configuration's throughput against the 1-shard ("batched") baseline at
// the same concurrency.
type ShardScale struct {
	Shards      int     `json:"shards"`
	Concurrency int     `json:"concurrency"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	P99Us       float64 `json:"latency_p99_us"`
	// Speedup is this point's jobs/s over the 1-shard point at the same
	// concurrency.
	Speedup float64 `json:"speedup_vs_single"`
}

// ServeBenchReport is the machine-readable snapshot emitted as
// BENCH_serve.json: micro-batched service throughput vs the no-batching
// control over the standard 150 bp workload.
type ServeBenchReport struct {
	ReadLen  int `json:"read_len"`
	Problems int `json:"problems"`
	Band     int `json:"band"`
	// GoMaxProcs and NumCPU pin the parallelism the run measured under —
	// jobs/s comparisons across machines or cgroup limits are otherwise
	// meaningless.
	GoMaxProcs     int          `json:"gomaxprocs"`
	NumCPU         int          `json:"num_cpu"`
	Mode           string       `json:"mode"`
	MaxBatch       int          `json:"max_batch"`
	FlushUs        float64      `json:"flush_us"`
	JobsPerRequest int          `json:"jobs_per_request"`
	DurationMs     float64      `json:"duration_ms_per_point"`
	ChaosRate      float64      `json:"chaos_rate,omitempty"`
	ChaosSeed      int64        `json:"chaos_seed,omitempty"`
	TraceSample    int          `json:"trace_sample,omitempty"`
	Shards         []int        `json:"shards,omitempty"`
	RoutePolicy    string       `json:"route_policy,omitempty"`
	Points         []ServePoint `json:"points"`
	Gains          []ServeGain  `json:"gains"`
	// ShardScaling is the shard scaling curve (every sharded point vs the
	// 1-shard baseline), present when Shards were swept.
	ShardScaling []ShardScale `json:"shard_scaling,omitempty"`
	// ShardGainHighConc is the widest sharded configuration's speedup
	// over 1 shard at the highest measured concurrency.
	ShardGainHighConc float64 `json:"shard_gain_high_concurrency,omitempty"`
	// GainHighConc is the throughput gain at the highest measured
	// concurrency — the headline micro-batching figure.
	GainHighConc float64 `json:"throughput_gain_high_concurrency"`
	// TraceOverheadPct is the jobs/s cost of sampled tracing at the
	// highest measured concurrency: (batched - batched-traced) / batched,
	// as a percentage. Present only when the traced configuration ran.
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
	// TailOverheadPct is the jobs/s cost of tail-based retention (every
	// request checks out a journey buffer; the verdict decides what
	// survives) at the highest measured concurrency, against the same
	// untraced "batched" baseline. Present only when the tail
	// configuration ran.
	TailOverheadPct float64 `json:"tail_overhead_pct,omitempty"`
	// Prefilter carries the pre-alignment filter tier's /v1/map
	// benchmark when the run swept it (seedex-bench -fig serve -prefilter).
	Prefilter *PrefilterServeReport `json:"prefilter,omitempty"`
	// Index carries the reference-index lifecycle benchmark when the run
	// swept it (seedex-bench -fig serve -index-bench): container
	// build/publish/load/warmup time and mmap-served /v1/map throughput
	// under a hot-reload storm.
	Index *IndexServeReport `json:"index,omitempty"`
}

// JSON renders the report for BENCH_serve.json.
func (r ServeBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable summary table.
func (r ServeBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %10s %12s %10s %10s %9s %6s\n",
		"config", "conc", "jobs/s", "requests", "p50(us)", "p99(us)", "batches", "occ")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10s %5d %10.0f %12d %10.0f %10.0f %9d %6.1f\n",
			p.Config, p.Concurrency, p.JobsPerSec, p.Requests, p.P50Us, p.P99Us, p.Batches, p.MeanOccupancy)
	}
	for _, p := range r.Points {
		if h := p.Faults; h != nil {
			fmt.Fprintf(&b, "chaos %-10s @ %2d clients: breaker=%s injected=%d detected=%d retries=%d trips=%d host-only=%d\n",
				p.Config, p.Concurrency, h.Breaker, h.Injected.Total(), h.Detected, h.Retries, h.Trips, h.HostOnly)
		}
	}
	for _, g := range r.Gains {
		fmt.Fprintf(&b, "batched vs unbatched @ %d clients: %.2fx jobs/s\n", g.Concurrency, g.Gain)
	}
	for _, sc := range r.ShardScaling {
		fmt.Fprintf(&b, "%d shards (%s) vs 1 @ %d clients: %.2fx jobs/s, p99 %.0fus\n",
			sc.Shards, r.RoutePolicy, sc.Concurrency, sc.Speedup, sc.P99Us)
	}
	if r.TraceSample > 0 {
		fmt.Fprintf(&b, "tracing 1/%d overhead at high concurrency: %.1f%% jobs/s\n", r.TraceSample, r.TraceOverheadPct)
		fmt.Fprintf(&b, "tail sampling overhead at high concurrency: %.1f%% jobs/s\n", r.TailOverheadPct)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ServeRun is one recorded run in the BENCH_serve.json history: the
// report plus the PR (or other label) that produced it.
type ServeRun struct {
	PR string `json:"pr"`
	ServeBenchReport
}

// ServeHistory is the BENCH_serve.json schema: an append-only array of
// runs, oldest first — the service-throughput trajectory across PRs.
// Consumers wanting "the current numbers" read the latest entry.
type ServeHistory struct {
	Runs []ServeRun `json:"runs"`
}

// Latest returns the newest run, or nil for an empty history.
func (h *ServeHistory) Latest() *ServeRun {
	if len(h.Runs) == 0 {
		return nil
	}
	return &h.Runs[len(h.Runs)-1]
}

// JSON renders the history for BENCH_serve.json.
func (h ServeHistory) JSON() ([]byte, error) {
	return json.MarshalIndent(h, "", "  ")
}

// ParseServeHistory decodes a BENCH_serve.json document. The legacy
// schema — a single bare ServeBenchReport object — converts to a one-run
// history labeled "legacy", so appending to a pre-history file preserves
// its measurement as the first trajectory point.
func ParseServeHistory(data []byte) (ServeHistory, error) {
	var h ServeHistory
	if len(bytes.TrimSpace(data)) == 0 {
		return h, nil
	}
	var probe struct {
		Runs *[]ServeRun `json:"runs"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return h, fmt.Errorf("bench: parsing serve history: %w", err)
	}
	if probe.Runs == nil {
		var legacy ServeBenchReport
		if err := json.Unmarshal(data, &legacy); err != nil {
			return h, fmt.Errorf("bench: parsing legacy serve report: %w", err)
		}
		h.Runs = []ServeRun{{PR: "legacy", ServeBenchReport: legacy}}
		return h, nil
	}
	h.Runs = *probe.Runs
	return h, nil
}

// ReadServeHistory loads the history file at path; a missing file is an
// empty history (the first run creates it).
func ReadServeHistory(path string) (ServeHistory, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ServeHistory{}, nil
	}
	if err != nil {
		return ServeHistory{}, err
	}
	return ParseServeHistory(data)
}

// ServeBench load-tests the alignment service over the workload's
// harvested problems. For each concurrency point it boots a fresh
// in-process server twice — once micro-batching (flush at MaxBatch jobs
// or Flush), once with batching disabled (MaxBatch=1) — and drives it
// with closed-loop HTTP clients issuing JobsPerRequest-job requests.
func ServeBench(w *Workload, cfg ServeBenchConfig) ServeBenchReport {
	cfg = cfg.withDefaults()
	rep := ServeBenchReport{
		Problems:       len(w.Problems),
		Band:           cfg.Band,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Mode:           "strict",
		MaxBatch:       cfg.MaxBatch,
		FlushUs:        float64(cfg.Flush.Nanoseconds()) / 1e3,
		JobsPerRequest: cfg.JobsPerRequest,
		DurationMs:     float64(cfg.Duration.Nanoseconds()) / 1e6,
	}
	if len(w.Reads) > 0 {
		rep.ReadLen = len(w.Reads[0].Seq)
	}
	if cfg.Paper {
		rep.Mode = "paper"
	}
	if cfg.ChaosRate > 0 {
		// The fault-injected device engine only runs the strict workflow.
		rep.Mode = "strict"
		rep.ChaosRate = cfg.ChaosRate
		rep.ChaosSeed = cfg.ChaosSeed
	}
	if cfg.TraceSample > 0 {
		rep.TraceSample = cfg.TraceSample
	}
	if len(w.Problems) == 0 {
		return rep
	}
	bodies := serveBodies(w.Problems, cfg.JobsPerRequest)

	type serveConfig struct {
		name   string
		batch  server.BatcherConfig
		sample int
		tail   bool
		shards int
	}
	batched := server.BatcherConfig{MaxBatch: cfg.MaxBatch, FlushInterval: cfg.Flush}
	configs := []serveConfig{
		{name: "batched", batch: batched, shards: 1},
		{name: "unbatched", batch: server.BatcherConfig{MaxBatch: 1, FlushInterval: cfg.Flush}, shards: 1},
	}
	if cfg.TraceSample > 0 {
		configs = append(configs, serveConfig{name: "batched-traced", batch: batched, sample: cfg.TraceSample, shards: 1})
		configs = append(configs, serveConfig{name: "batched-tail", batch: batched, tail: true, shards: 1})
	}
	for _, n := range cfg.Shards {
		if n > 1 {
			configs = append(configs, serveConfig{name: fmt.Sprintf("sharded-%d", n), batch: batched, shards: n})
		}
	}
	if len(cfg.Shards) > 0 {
		rep.Shards = cfg.Shards
		rep.RoutePolicy = cfg.RoutePolicy
	}
	byConfig := map[string]map[int]ServePoint{}
	for _, c := range configs {
		byConfig[c.name] = map[int]ServePoint{}
		for _, conc := range cfg.Concurrency {
			p := runServePoint(cfg, c.batch, bodies, conc, c.sample, c.tail, c.shards)
			p.Config = c.name
			rep.Points = append(rep.Points, p)
			byConfig[c.name][conc] = p
		}
	}
	for _, conc := range cfg.Concurrency {
		base := byConfig["batched"][conc].JobsPerSec
		if u := byConfig["unbatched"][conc].JobsPerSec; u > 0 {
			g := ServeGain{Concurrency: conc, Gain: base / u}
			rep.Gains = append(rep.Gains, g)
			rep.GainHighConc = g.Gain
		}
		if base > 0 {
			if t, ok := byConfig["batched-traced"][conc]; ok {
				rep.TraceOverheadPct = 100 * (base - t.JobsPerSec) / base
			}
			if t, ok := byConfig["batched-tail"][conc]; ok {
				rep.TailOverheadPct = 100 * (base - t.JobsPerSec) / base
			}
		}
		// Shard scaling curve: "batched" is the curve's 1-shard point.
		for _, n := range cfg.Shards {
			p, ok := byConfig[fmt.Sprintf("sharded-%d", n)][conc]
			if !ok {
				continue
			}
			sc := ShardScale{Shards: n, Concurrency: conc, JobsPerSec: p.JobsPerSec, P99Us: p.P99Us}
			if base > 0 {
				sc.Speedup = p.JobsPerSec / base
			}
			rep.ShardScaling = append(rep.ShardScaling, sc)
			rep.ShardGainHighConc = sc.Speedup
		}
	}
	return rep
}

// serveBodies pre-marshals a rotation of request bodies so the client
// loop measures service throughput, not JSON encoding.
func serveBodies(probs []Problem, jobsPerReq int) [][]byte {
	const maxBodies = 512
	n := len(probs) / jobsPerReq
	if n > maxBodies {
		n = maxBodies
	}
	if n == 0 {
		n = 1
	}
	bodies := make([][]byte, n)
	k := 0
	for i := range bodies {
		type wireJob struct {
			Query  string `json:"query"`
			Target string `json:"target"`
			H0     int    `json:"h0"`
		}
		jobs := make([]wireJob, jobsPerReq)
		for j := range jobs {
			p := probs[k%len(probs)]
			k++
			jobs[j] = wireJob{Query: genome.Decode(p.Q), Target: genome.Decode(p.T), H0: p.H0}
		}
		bodies[i], _ = json.Marshal(map[string]any{"jobs": jobs})
	}
	return bodies
}

// runServePoint measures one (batch config, concurrency, shard count)
// cell: a fresh server, closed-loop clients for the duration, then the
// server's own batch-shape metrics.
func runServePoint(cfg ServeBenchConfig, bcfg server.BatcherConfig, bodies [][]byte, conc, sample int, tail bool, shards int) ServePoint {
	jobsPerReq, dur := cfg.JobsPerRequest, cfg.Duration
	var health func() faults.Health
	// Each shard gets its own extender (its own engine, breaker and
	// session pool) — the fault and perf isolation the routing tier is
	// built around.
	newExt := func(shard int) align.Extender {
		if cfg.ChaosRate > 0 {
			dcfg := driver.DefaultConfig()
			dcfg.Band = cfg.Band
			// Decorrelate the per-shard fault draws without losing
			// determinism: shard i draws from seed+i.
			dcfg.Faults = faults.Uniform(cfg.ChaosSeed+int64(shard), cfg.ChaosRate)
			dcfg.DeviceTimeout = 10 * time.Millisecond
			return driver.NewEngine(dcfg)
		}
		se := core.New(cfg.Band)
		if cfg.Paper {
			se.Config.Mode = core.ModePaper
		}
		return se
	}
	var ext align.Extender
	scfg := server.Config{Batch: bcfg, Shards: shards, RoutePolicy: cfg.RoutePolicy}
	if shards > 1 {
		scfg.NewExtender = newExt
	} else {
		ext = newExt(0)
		scfg.Extender = ext
		if eng, ok := ext.(*driver.Engine); ok {
			health = eng.Health
		}
	}
	tracer := obs.New(obs.Config{SampleEvery: sample, Tail: obs.TailConfig{Enabled: tail}})
	scfg.Trace = tracer
	s := server.New(scfg)
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxIdleConns: 2 * conc, MaxIdleConnsPerHost: 2 * conc}
	client := &http.Client{Transport: tr}
	url := ts.URL + "/v1/extend"

	var stop atomic.Bool
	var requests, jobs, rejected int64
	lats := make([][]time.Duration, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, 4096)
			for it := id; !stop.Load(); it++ {
				body := bodies[it%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				drainBody(resp)
				switch resp.StatusCode {
				case http.StatusOK:
					atomic.AddInt64(&requests, 1)
					atomic.AddInt64(&jobs, int64(jobsPerReq))
					mine = append(mine, time.Since(t0))
				case http.StatusTooManyRequests:
					atomic.AddInt64(&rejected, int64(jobsPerReq))
				}
			}
			lats[id] = mine
		}(i)
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	ts.Close()
	s.Close()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	snap := s.Metrics().Snapshot(0, 0)
	p := ServePoint{
		Concurrency:   conc,
		Requests:      requests,
		Jobs:          jobs,
		Rejected:      rejected,
		JobsPerSec:    float64(jobs) / elapsed.Seconds(),
		Batches:       snap.Batches,
		MeanOccupancy: snap.MeanOccupancy,
	}
	if len(all) > 0 {
		p.P50Us = float64(all[len(all)/2].Nanoseconds()) / 1e3
		p.P99Us = float64(all[len(all)*99/100].Nanoseconds()) / 1e3
	}
	if health != nil {
		h := health()
		p.Faults = &h
	}
	if tracer != nil {
		tstats := tracer.TraceStats()
		p.Trace = &tstats
	}
	return p
}

// drainBody consumes and closes a response body so the transport reuses
// the connection.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
