package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
	"seedex/internal/server"
)

// MapBenchConfig shapes the pre-alignment filter tier's service
// benchmark: the same /v1/map workload is served with the filter off
// (control) and on, at increasing client concurrency, after proving the
// two configurations map an equivalence corpus identically.
type MapBenchConfig struct {
	// Threshold is the filter's edit threshold as a fraction of read
	// length (0 = bwamem.DefaultPrefilterThreshold).
	Threshold float64
	// Band is the one-sided band of the served extender (default 21).
	Band int
	// Concurrency lists the client counts to sweep (default 8, 32).
	Concurrency []int
	// ReadsPerRequest is the client request size (default 8).
	ReadsPerRequest int
	// Duration is the measurement window per point (default 1s).
	Duration time.Duration
	// Templates is the number of distinct in-repeat reads in the served
	// rotation (default 24); DecoysPerRead the decoy copies planted for
	// each (default 8). Together they set how many junk chains the
	// filter gets to reject per read.
	Templates     int
	DecoysPerRead int
	// MaxChains is the per-read extension cap of both served aligners
	// (default 10, the chainer's own output cap — a repeat-stressed
	// setting; the aligner default of 5 leaves at most three decoy
	// chains per read for the filter to reject).
	MaxChains int
	// EquivReads adds this many randomly simulated reads to the
	// equivalence corpus on top of the templates (default 200).
	EquivReads int
	// Seed pins the workload RNG.
	Seed int64
}

func (c MapBenchConfig) withDefaults() MapBenchConfig {
	if c.Threshold <= 0 {
		c.Threshold = bwamem.DefaultPrefilterThreshold
	}
	if c.Band <= 0 {
		c.Band = 21
	}
	if len(c.Concurrency) == 0 {
		c.Concurrency = []int{8, 32}
	}
	if c.ReadsPerRequest <= 0 {
		c.ReadsPerRequest = 8
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Templates <= 0 {
		c.Templates = 24
	}
	if c.DecoysPerRead <= 0 {
		c.DecoysPerRead = 8
	}
	if c.MaxChains <= 0 {
		c.MaxChains = 10
	}
	if c.EquivReads <= 0 {
		c.EquivReads = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MapPoint is one (filter configuration, concurrency) measurement of
// the /v1/map service.
type MapPoint struct {
	Config      string  `json:"config"` // "prefilter-off" or "prefilter-on"
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	Reads       int64   `json:"reads"`
	ReadsPerSec float64 `json:"reads_per_sec"`
	P50Us       float64 `json:"latency_p50_us"`
	P99Us       float64 `json:"latency_p99_us"`
}

// PrefilterServeReport is the filter tier's section of the
// BENCH_serve.json run entry: mapped-reads/s with the filter on vs off
// over a repeat+decoy workload, plus the filter counters and the
// equivalence sweep that certifies the speedup changed no mapping.
type PrefilterServeReport struct {
	Threshold       float64     `json:"threshold"`
	Band            int         `json:"band"`
	ReadLen         int         `json:"read_len"`
	RefLen          int         `json:"ref_len"`
	Templates       int         `json:"templates"`
	DecoysPerRead   int         `json:"decoys_per_read"`
	MaxChains       int         `json:"max_chains"`
	ReadsPerRequest int         `json:"reads_per_request"`
	DurationMs      float64     `json:"duration_ms_per_point"`
	Points          []MapPoint  `json:"points"`
	Gains           []ServeGain `json:"gains"`
	// GainHighConc is filter-on reads/s over filter-off reads/s at the
	// highest measured concurrency — the tier's headline figure.
	GainHighConc float64 `json:"throughput_gain_high_concurrency"`
	// Filter counters accumulated by the on-configuration across all its
	// points (the equivalence sweep runs on separate aligners).
	Pass      int64 `json:"prefilter_pass"`
	Reject    int64 `json:"prefilter_reject"`
	Rescued   int64 `json:"prefilter_rescued"`
	FalsePass int64 `json:"prefilter_false_pass"`
	// Equivalence sweep: every corpus read aligned by both
	// configurations directly; Mismatches must be zero.
	EquivReads      int `json:"equivalence_reads"`
	EquivMismatches int `json:"equivalence_mismatches"`
}

// String renders a human-readable summary table.
func (r PrefilterServeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %12s %12s %10s %10s\n",
		"config", "conc", "reads/s", "requests", "p50(us)", "p99(us)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %5d %12.0f %12d %10.0f %10.0f\n",
			p.Config, p.Concurrency, p.ReadsPerSec, p.Requests, p.P50Us, p.P99Us)
	}
	for _, g := range r.Gains {
		fmt.Fprintf(&b, "prefilter on vs off @ %d clients: %.2fx reads/s\n", g.Concurrency, g.Gain)
	}
	fmt.Fprintf(&b, "filter counters: pass=%d reject=%d rescued=%d false-pass=%d\n",
		r.Pass, r.Reject, r.Rescued, r.FalsePass)
	fmt.Fprintf(&b, "equivalence: %d reads on vs off, %d mismatches\n", r.EquivReads, r.EquivMismatches)
	return strings.TrimRight(b.String(), "\n")
}

const mapReadLen = 150

// mapBenchWorld builds the workload the filter tier earns its keep on.
// The reference carries a long repeat twice (so in-repeat reads have a
// distant full-score competitor and the rescue floors sit high) and, for
// every served read template, DecoysPerRead exact copies of the
// template's error-split right segment embedded in unique junk. Each
// template read therefore grows its two genuine chains plus a set of
// heavy decoy chains whose extensions can only reach clipped, sub-floor
// scores — exactly the work the filter rejects without rescue. The
// equivalence corpus adds randomly simulated reads over the same
// reference so the bit-identity sweep also covers ordinary mappings.
func mapBenchWorld(cfg MapBenchConfig) (ref []byte, served, equiv []readsim.Read) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	const errPos = 60 // split 150 bp reads into 60 bp + 89 bp segments
	unit := genome.Simulate(genome.SimConfig{Length: 6_000}, rng)
	junkLen := 3*2_000 + cfg.Templates*cfg.DecoysPerRead*170 + 1_000
	junk := genome.Simulate(genome.SimConfig{Length: junkLen}, rng)
	jp := 0
	take := func(n int) []byte { s := junk[jp : jp+n]; jp += n; return s }

	step := (len(unit) - mapReadLen) / cfg.Templates
	served = make([]readsim.Read, cfg.Templates)
	qual := bytes.Repeat([]byte{'I'}, mapReadLen)
	ref = append(ref, take(2_000)...)
	ref = append(ref, unit...)
	ref = append(ref, take(2_000)...)
	for i := range served {
		p := i * step
		tmpl := append([]byte(nil), unit[p:p+mapReadLen]...)
		tmpl[errPos] = (tmpl[errPos] + 1) & 3
		served[i] = readsim.Read{ID: fmt.Sprintf("tmpl%d", i), Seq: tmpl, Qual: qual}
		// The right segment (error-bounded, so it is a whole SMEM of the
		// template) gets DecoysPerRead exact copies; the junk flanks make
		// any alignment there clip ~60 bp, keeping its certified bound
		// under the repeat-copy floors. The guard base before each copy
		// must differ from the template's error base: if random junk
		// matched it, the query match q[errPos:] at the decoy would be
		// longer than the genuine q[errPos+1:] match and supermaximality
		// would drop the true-locus occurrences from the seed set.
		guard := (tmpl[errPos] + 2) & 3
		for d := 0; d < cfg.DecoysPerRead; d++ {
			ref = append(ref, take(169)...)
			ref = append(ref, guard)
			ref = append(ref, unit[p+errPos+1:p+mapReadLen]...)
		}
	}
	ref = append(ref, take(300)...)
	ref = append(ref, unit...)
	ref = append(ref, take(2_000)...)

	rcfg := readsim.DefaultConfig(cfg.EquivReads)
	rcfg.ReadLen = mapReadLen
	rcfg.ErrRate = 0.012
	equiv = append(append([]readsim.Read(nil), served...), readsim.Simulate(ref, rcfg, rng)...)
	return ref, served, equiv
}

func newMapBenchAligner(ref []byte, cfg MapBenchConfig, on bool) (*bwamem.Aligner, error) {
	se := core.New(cfg.Band)
	se.Config.Mode = core.ModePaper
	a, err := bwamem.New("chrPF", ref, se)
	if err != nil {
		return nil, err
	}
	a.Opts.Prefilter = on
	a.Opts.PrefilterThreshold = cfg.Threshold
	a.Opts.MaxChains = cfg.MaxChains
	// Banded traceback (both configurations): the full-matrix default
	// spends more time CIGAR-tracing the one winner than extending all
	// its rivals, which would mask what the tier under test changes.
	a.Opts.TraceBand = 2*cfg.Band + 1
	if on {
		a.Stats = core.NewStats()
	}
	return a, nil
}

// sameMapAlignment compares the fields the mapping output depends on —
// everything except the cost counters the filter is allowed to change
// (Extensions, Prefilter*).
func sameMapAlignment(a, b bwamem.Alignment) bool {
	return a.Mapped == b.Mapped && a.RName == b.RName && a.Pos == b.Pos &&
		a.Rev == b.Rev && a.Score == b.Score && a.SubScore == b.SubScore &&
		a.MapQ == b.MapQ && a.Cigar.String() == b.Cigar.String()
}

// MapServeBench measures the filter tier end to end: it proves on/off
// bit-equivalence over the corpus, then load-tests /v1/map under both
// configurations at each concurrency. A non-zero equivalence mismatch
// count is an error — a speedup that changes mappings is not a result.
func MapServeBench(cfg MapBenchConfig) (PrefilterServeReport, error) {
	cfg = cfg.withDefaults()
	ref, served, equiv := mapBenchWorld(cfg)
	rep := PrefilterServeReport{
		Threshold:       cfg.Threshold,
		Band:            cfg.Band,
		ReadLen:         mapReadLen,
		RefLen:          len(ref),
		Templates:       cfg.Templates,
		DecoysPerRead:   cfg.DecoysPerRead,
		MaxChains:       cfg.MaxChains,
		ReadsPerRequest: cfg.ReadsPerRequest,
		DurationMs:      float64(cfg.Duration.Nanoseconds()) / 1e6,
	}

	// Equivalence sweep on dedicated aligners, so the load-test counters
	// below reflect served traffic only.
	offEq, err := newMapBenchAligner(ref, cfg, false)
	if err != nil {
		return rep, err
	}
	onEq, err := newMapBenchAligner(ref, cfg, true)
	if err != nil {
		return rep, err
	}
	rep.EquivReads = len(equiv)
	for _, r := range equiv {
		if !sameMapAlignment(offEq.AlignRead(r.Seq), onEq.AlignRead(r.Seq)) {
			rep.EquivMismatches++
		}
	}
	if rep.EquivMismatches > 0 {
		return rep, fmt.Errorf("bench: prefilter equivalence broken: %d of %d reads map differently with the filter on",
			rep.EquivMismatches, rep.EquivReads)
	}

	bodies := mapBodies(served, cfg.ReadsPerRequest)
	off, err := newMapBenchAligner(ref, cfg, false)
	if err != nil {
		return rep, err
	}
	on, err := newMapBenchAligner(ref, cfg, true)
	if err != nil {
		return rep, err
	}
	byConf := map[string]map[int]MapPoint{"prefilter-off": {}, "prefilter-on": {}}
	for _, c := range []struct {
		name string
		al   *bwamem.Aligner
	}{{"prefilter-off", off}, {"prefilter-on", on}} {
		for _, conc := range cfg.Concurrency {
			p := runMapPoint(c.al, bodies, conc, cfg.ReadsPerRequest, cfg.Duration)
			p.Config = c.name
			rep.Points = append(rep.Points, p)
			byConf[c.name][conc] = p
		}
	}
	for _, conc := range cfg.Concurrency {
		if o := byConf["prefilter-off"][conc].ReadsPerSec; o > 0 {
			g := ServeGain{Concurrency: conc, Gain: byConf["prefilter-on"][conc].ReadsPerSec / o}
			rep.Gains = append(rep.Gains, g)
			rep.GainHighConc = g.Gain
		}
	}
	snap := on.Stats.Snapshot()
	rep.Pass = snap.PrefilterPass
	rep.Reject = snap.PrefilterReject
	rep.Rescued = snap.PrefilterRescued
	rep.FalsePass = snap.PrefilterFalsePass
	return rep, nil
}

// mapBodies pre-marshals a rotation of /v1/map request bodies.
func mapBodies(reads []readsim.Read, perReq int) [][]byte {
	n := len(reads)/perReq + 1
	bodies := make([][]byte, n)
	k := 0
	for i := range bodies {
		req := server.MapRequest{Reads: make([]server.MapRead, perReq)}
		for j := range req.Reads {
			r := reads[k%len(reads)]
			k++
			req.Reads[j] = server.MapRead{Name: r.ID, Seq: genome.Decode(r.Seq), Qual: string(r.Qual)}
		}
		bodies[i], _ = json.Marshal(req)
	}
	return bodies
}

// runMapPoint measures one (aligner, concurrency) cell: a fresh server
// over the shared aligner, closed-loop clients for the duration.
func runMapPoint(al *bwamem.Aligner, bodies [][]byte, conc, perReq int, dur time.Duration) MapPoint {
	s := server.New(server.Config{Extender: al.Extender, Aligner: al})
	defer s.Close()
	return measureMapPoint(s, bodies, conc, perReq, dur, nil)
}

// measureMapPoint drives one concurrency point against a caller-owned
// server (the caller closes it). The first third of the window is
// warmup — connections, caches, and the batcher settle before any
// request counts toward the measurement. When during is non-nil it runs
// in its own goroutine once measurement starts, given the server's base
// URL — the hook the index-store bench uses to fire hot reloads into
// the measured window.
func measureMapPoint(s *server.Server, bodies [][]byte, conc, perReq int, dur time.Duration, during func(base string)) MapPoint {
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxIdleConns: 2 * conc, MaxIdleConnsPerHost: 2 * conc}
	client := &http.Client{Transport: tr}
	url := ts.URL + "/v1/map"

	var stop, measuring atomic.Bool
	var requests, reads int64
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
				if resp.StatusCode == http.StatusOK && measuring.Load() {
					atomic.AddInt64(&requests, 1)
					atomic.AddInt64(&reads, int64(perReq))
					mine = append(mine, time.Since(t0))
				}
			}
			lats[id] = mine
		}(i)
	}
	time.Sleep(dur / 3)
	start := time.Now()
	measuring.Store(true)
	var duringWG sync.WaitGroup
	if during != nil {
		duringWG.Add(1)
		go func() {
			defer duringWG.Done()
			during(ts.URL)
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	duringWG.Wait()
	elapsed := time.Since(start)
	ts.Close()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p := MapPoint{
		Concurrency: conc,
		Requests:    requests,
		Reads:       reads,
		ReadsPerSec: float64(reads) / elapsed.Seconds(),
	}
	if len(all) > 0 {
		p.P50Us = float64(all[len(all)/2].Nanoseconds()) / 1e3
		p.P99Us = float64(all[len(all)*99/100].Nanoseconds()) / 1e3
	}
	return p
}
