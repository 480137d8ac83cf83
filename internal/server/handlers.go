package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"io"

	"seedex/internal/core"
	"seedex/internal/faults"
	"seedex/internal/genome"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// ExtendJob is one extension problem in the request JSON: align query
// against target (ASCII bases) starting from seed score h0.
type ExtendJob struct {
	Query  string `json:"query"`
	Target string `json:"target"`
	H0     int    `json:"h0"`
}

// ExtendRequest is the POST /v1/extend body.
type ExtendRequest struct {
	Jobs []ExtendJob `json:"jobs"`
	// DeadlineMs, when positive, bounds this request's service time; jobs
	// still queued when it passes are skipped and the request answers 504.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// ExtendResult mirrors align.ExtendResult over the wire, plus the SeedEx
// rerun flag.
type ExtendResult struct {
	Local   int   `json:"local"`
	LocalT  int   `json:"local_t"`
	LocalQ  int   `json:"local_q"`
	Global  int   `json:"global"`
	GlobalT int   `json:"global_t"`
	Cells   int64 `json:"cells"`
	// Rerun reports that the banded result could not be proven optimal and
	// the response came from the full-band rerun (checked engines only).
	Rerun bool `json:"rerun,omitempty"`
}

// ExtendResponse is the POST /v1/extend reply.
type ExtendResponse struct {
	Results []ExtendResult `json:"results"`
}

// MapRead is one read in the POST /v1/map body (ASCII bases; qual
// optional).
type MapRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

// MapRequest is the POST /v1/map body.
type MapRequest struct {
	Reads      []MapRead `json:"reads"`
	DeadlineMs int       `json:"deadline_ms,omitempty"`
}

// MapResult is one mapped read in the reply.
type MapResult struct {
	Name   string `json:"name"`
	Mapped bool   `json:"mapped"`
	RName  string `json:"rname,omitempty"`
	Pos    int    `json:"pos,omitempty"` // 1-based, SAM convention
	Rev    bool   `json:"rev,omitempty"`
	MapQ   int    `json:"mapq"`
	Score  int    `json:"score"`
	Cigar  string `json:"cigar,omitempty"`
	Sam    string `json:"sam"`
}

// MapResponse is the POST /v1/map reply.
type MapResponse struct {
	Results []MapResult `json:"results"`
}

type errorBody struct {
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-Id, so a 429/504 line in a
	// client log correlates with the server's trace of the same request.
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/extend", s.handleExtend)
	s.mux.HandleFunc("POST /v1/extend/stream", s.handleExtendStream)
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/slow", s.handleTracesSlow)
	s.mux.HandleFunc("GET /debug/journeys", s.handleJourneys)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
}

// countFailure tallies the statuses the availability SLO counts as
// failed serving (client errors like 400/413 are the caller's fault and
// don't burn the availability budget; 413 still tail-retains).
func (s *Server) countFailure(status int) {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		s.met.Failed.Add(1)
	}
}

// requestID resolves the request's id (client-supplied or minted) and
// echoes it on the response before anything is written.
func requestID(w http.ResponseWriter, r *http.Request) (uint64, string) {
	rid, ridStr := obs.RequestID(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", ridStr)
	return rid, ridStr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, rid string, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), RequestID: rid})
}

// admitError maps a Submit error onto its HTTP reply and counters,
// returning the status it wrote.
func (s *Server) admitError(w http.ResponseWriter, rid string, err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.met.Rejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests, rid, "admission queue full, retry later")
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		s.met.Draining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, rid, "server is draining")
		return http.StatusServiceUnavailable
	default:
		s.writeError(w, http.StatusInternalServerError, rid, "%v", err)
		return http.StatusInternalServerError
	}
}

// requestContext applies the request's JSON deadline to its context.
func requestContext(r *http.Request, deadlineMs int) (context.Context, context.CancelFunc) {
	if deadlineMs > 0 {
		return context.WithTimeout(r.Context(), time.Duration(deadlineMs)*time.Millisecond)
	}
	return r.Context(), func() {}
}

// validateJob bounds one extension job's shape.
func (s *Server) validateJob(j ExtendJob) error {
	if j.Query == "" || j.Target == "" {
		return fmt.Errorf("query and target must be non-empty")
	}
	if len(j.Query) > s.cfg.MaxSeqLen || len(j.Target) > s.cfg.MaxSeqLen {
		return fmt.Errorf("sequence longer than %d bp", s.cfg.MaxSeqLen)
	}
	if j.H0 < 0 {
		return fmt.Errorf("h0 must be non-negative")
	}
	return nil
}

func wireResult(r core.Response) ExtendResult {
	return ExtendResult{
		Local:   r.Res.Local,
		LocalT:  r.Res.LocalT,
		LocalQ:  r.Res.LocalQ,
		Global:  r.Res.Global,
		GlobalT: r.Res.GlobalT,
		Cells:   r.Res.Cells,
		Rerun:   r.Rerun,
	}
}

// batchCall is one /v1/extend or /v1/map request in the skeleton both
// handlers share: beginCall counts it, the deferred end records its
// status and item count, decode applies the drain check and the bounded
// body decode, and serveJobs admits its jobs and waits for their results.
type batchCall struct {
	s      *Server
	w      http.ResponseWriter
	r      *http.Request
	rid    uint64
	ridStr string
	tr     obs.Ref
	start  time.Time
	status int
	n      int // jobs or reads in the decoded body
}

func (s *Server) beginCall(w http.ResponseWriter, r *http.Request) *batchCall {
	s.met.Requests.Add(1)
	c := &batchCall{s: s, w: w, r: r, start: time.Now(), status: http.StatusOK}
	c.rid, c.ridStr = requestID(w, r)
	c.tr = s.trace.Sample(c.rid)
	return c
}

func (c *batchCall) end() {
	c.s.countFailure(c.status)
	c.s.trace.RequestDone(c.tr, c.rid, c.start, time.Since(c.start), int64(c.n), int64(c.status))
}

func (c *batchCall) fail(status int, format string, args ...any) {
	c.status = status
	c.s.writeError(c.w, status, c.ridStr, format, args...)
}

// reject answers 400: the client sent input the service cannot take.
func (c *batchCall) reject(format string, args ...any) {
	c.s.met.BadInput.Add(1)
	c.fail(http.StatusBadRequest, format, args...)
}

// decode refuses work while draining, then parses the JSON body into v,
// bounded by MaxBodyBytes so an oversized (or oversized-malformed) body
// is refused with 413 instead of being allocated whole before validation.
func (c *batchCall) decode(v any) bool {
	if c.s.draining.Load() {
		c.s.met.Draining.Add(1)
		c.fail(http.StatusServiceUnavailable, "server is draining")
		return false
	}
	c.r.Body = http.MaxBytesReader(c.w, c.r.Body, c.s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(c.r.Body).Decode(v); err != nil {
		c.s.met.BadInput.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			c.fail(http.StatusRequestEntityTooLarge, "request body larger than %d bytes", tooBig.Limit)
		} else {
			c.fail(http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

// sized records the body's item count and bounds it to
// 1..MaxJobsPerRequest.
func (c *batchCall) sized(n int, noun string) bool {
	c.n = n
	if n == 0 || n > c.s.cfg.MaxJobsPerRequest {
		c.reject("%s must hold 1..%d entries", noun, c.s.cfg.MaxJobsPerRequest)
		return false
	}
	return true
}

// reply answers 200 and records the request's service time.
func (c *batchCall) reply(v any) {
	c.s.met.observeLatency(time.Since(c.start))
	writeJSON(c.w, http.StatusOK, v)
}

// serveJobs admits a validated request's n jobs to lane, building job
// i's payload just before its submit, and waits for their results. One
// routing decision covers the request: all its jobs share a shard (and
// so a flush deadline), keyed by region, and a full shard queue fails
// individual jobs over to peers inside submit. Jobs from one request may
// complete across several batches; the pending reassembles them. On
// failure serveJobs has answered the request itself.
func serveJobs[P, R any](c *batchCall, lane func(*shard) *batcher[job[P, R]], region string, deadlineMs int, noun string, n int, payload func(i int) P) ([]R, bool) {
	s := c.s
	ctx, cancel := requestContext(c.r, deadlineMs)
	defer cancel()
	p := newPending[R](n)
	sh := pick(s.router, routeKey(region), lane)
	for i := 0; i < n; i++ {
		j := job[P, R]{ctx: ctx, slot: i, out: p, tr: c.tr, enq: time.Now(), in: payload(i)}
		if err := submit(s.router, sh, lane, j); err != nil {
			// Refuse the request as a whole: partial results are never
			// served. Jobs already in flight still write into p, so wait
			// them out; abandon closes done itself if they all landed
			// before it ran.
			if i > 0 {
				p.abandon(i, n)
				<-p.done
			}
			c.status = s.admitError(c.w, c.ridStr, err)
			return nil, false
		}
		s.met.Accepted.Add(1)
	}
	select {
	case <-p.done:
		// Expired jobs resolve as zero-valued placeholders; when the
		// deadline and the last delivery race, this arm can win over
		// ctx.Done(). Never serve those zeros as 200.
		if expired := p.expired.Load(); expired > 0 {
			c.fail(http.StatusGatewayTimeout, "deadline exceeded: %d of %d %s expired before compute", expired, n, noun)
			return nil, false
		}
	case <-ctx.Done():
		// Jobs are still in flight: workers may yet write spans, so the
		// journey buffer must not be recycled for another request.
		c.tr.Detach()
		c.fail(http.StatusGatewayTimeout, "deadline exceeded with %s in flight", noun)
		return nil, false
	}
	return p.res, true
}

// handleExtend runs one JSON batch of extension jobs through the
// micro-batcher. Independent requests coalesce into shared device
// batches; each request waits only for its own jobs.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	c := s.beginCall(w, r)
	defer c.end()
	var req ExtendRequest
	if !c.decode(&req) || !c.sized(len(req.Jobs), "jobs") {
		return
	}
	for i, j := range req.Jobs {
		if err := s.validateJob(j); err != nil {
			c.reject("job %d: %v", i, err)
			return
		}
	}
	// The first job's target stands in for the request's reference region.
	res, ok := serveJobs(c, extLane, req.Jobs[0].Target, req.DeadlineMs, "jobs", len(req.Jobs), func(i int) core.Request {
		j := req.Jobs[i]
		return core.Request{Q: genome.Encode(j.Query), T: genome.Encode(j.Target), H0: j.H0, Tag: i}
	})
	if !ok {
		return
	}
	resp := ExtendResponse{Results: make([]ExtendResult, len(res))}
	for i, r := range res {
		resp.Results[i] = wireResult(r)
	}
	c.reply(resp)
}

// handleExtendStream is the pipelined NDJSON form: one ExtendJob per
// input line, one ExtendResult per output line, in input order. The
// stream window keeps jobs flowing into the micro-batcher while earlier
// results are still being written, so a single client saturates the
// batch pipeline without batching client-side.
func (s *Server) handleExtendStream(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Add(1)
	start := time.Now()
	rid, ridStr := requestID(w, r)
	tr := s.trace.Sample(rid)
	var lines int64
	defer func() {
		s.trace.RequestDone(tr, rid, start, time.Since(start), lines, http.StatusOK)
	}()
	if s.draining.Load() {
		s.met.Draining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ridStr, "server is draining")
		return
	}
	ctx := r.Context()
	// Bound the stream like the batch endpoints; hitting the cap surfaces
	// as a decode error on the trailing error line.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Results are written while jobs are still being read. An HTTP/1.1
	// server otherwise stops reading the request body once the response
	// starts, silently truncating long streams. The call only fails on
	// writers that cannot switch, such as HTTP/2's, which is full duplex
	// already.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := bufio.NewWriter(w)
	defer out.Flush()
	enc := json.NewEncoder(out)

	// window holds the pendings of submitted jobs in input order.
	const streamWindow = 256
	window := make(chan *pending[core.Response], streamWindow)
	errs := make(chan error, 1)
	// orphaned: the reader returned with a submitted job it never handed
	// to the drain loop (context cancelled mid-stream). Set before the
	// deferred close(window), so the drain loop observes it after range.
	var orphaned atomic.Bool
	go func() {
		defer close(window)
		dec := json.NewDecoder(r.Body)
		for i := 0; ; i++ {
			var j ExtendJob
			if err := dec.Decode(&j); err != nil {
				if !errors.Is(err, io.EOF) {
					// Non-EOF decode error: report it after drained results.
					select {
					case errs <- fmt.Errorf("line %d: %v", i, err):
					default:
					}
				}
				return
			}
			if err := s.validateJob(j); err != nil {
				s.met.BadInput.Add(1)
				select {
				case errs <- fmt.Errorf("line %d: %v", i, err):
				default:
				}
				return
			}
			p := newPending[core.Response](1)
			job := extJob{
				ctx: ctx,
				out: p,
				tr:  tr,
				enq: time.Now(),
				in:  core.Request{Q: genome.Encode(j.Query), T: genome.Encode(j.Target), H0: j.H0},
			}
			// Streamed jobs route individually: a long stream spreads over
			// the pool under load-based policies, and sticks to its region's
			// shard under consistent hashing.
			if err := s.router.submitWaitExt(ctx, routeKey(j.Target), job); err != nil {
				select {
				case errs <- err:
				default:
				}
				return
			}
			s.met.Accepted.Add(1)
			select {
			case window <- p:
			case <-ctx.Done():
				// Still deliver the pending so the job completion has a
				// home; the writer is gone.
				orphaned.Store(true)
				return
			}
		}
	}()

	for p := range window {
		select {
		case <-p.done:
		case <-ctx.Done():
			// Undrained stream jobs may still record spans: keep the
			// journey buffer out of the reuse pool.
			tr.Detach()
			return
		}
		if p.expired.Load() > 0 {
			// The job expired in queue: the stream context is gone, and the
			// placeholder result must not be written as real scores.
			tr.Detach()
			return
		}
		if err := enc.Encode(wireResult(p.res[0])); err != nil {
			tr.Detach()
			return
		}
		lines++
		if len(window) == 0 {
			out.Flush()
		}
	}
	if orphaned.Load() {
		tr.Detach()
	}
	select {
	case err := <-errs:
		enc.Encode(errorBody{Error: err.Error(), RequestID: ridStr})
	default:
	}
}

// handleMap runs one JSON batch of reads through the mapping pipeline.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	c := s.beginCall(w, r)
	defer c.end()
	if !s.mapEnabled() {
		c.fail(http.StatusNotImplemented, "mapping endpoint disabled: server started without a reference")
		return
	}
	var req MapRequest
	if !c.decode(&req) || !c.sized(len(req.Reads), "reads") {
		return
	}
	for i, rd := range req.Reads {
		if rd.Seq == "" || len(rd.Seq) > s.cfg.MaxSeqLen {
			c.reject("read %d: seq must hold 1..%d bases", i, s.cfg.MaxSeqLen)
			return
		}
		if rd.Qual != "" && len(rd.Qual) != len(rd.Seq) {
			c.reject("read %d: qual length %d != seq length %d", i, len(rd.Qual), len(rd.Seq))
			return
		}
	}
	// The first read stands in for the region the request will map to.
	res, ok := serveJobs(c, mapLane, req.Reads[0].Seq, req.DeadlineMs, "reads", len(req.Reads), func(i int) mapRead {
		rd := req.Reads[i]
		m := mapRead{name: rd.Name, seq: genome.Encode(rd.Seq)}
		if rd.Qual != "" {
			m.qual = []byte(rd.Qual)
		}
		return m
	})
	if ok {
		c.reply(MapResponse{Results: res})
	}
}

// metricsBody is the /metrics document: the operational counters plus the
// SeedEx check statistics (shared StatsSnapshot path with the CLI).
type metricsBody struct {
	MetricsSnapshot
	UptimeSec float64           `json:"uptime_sec"`
	Build     obs.BuildInfo     `json:"build"`
	Checks    *checksBody       `json:"checks,omitempty"`
	Faults    *faults.Health    `json:"faults,omitempty"`
	MapQueue  *queueBody        `json:"map_queue,omitempty"`
	Index     *refstore.Status  `json:"index,omitempty"`
	Cluster   *clusterBody      `json:"cluster,omitempty"`
	Shards    []ShardSnapshot   `json:"shards,omitempty"`
	Trace     *obs.Stats        `json:"trace,omitempty"`
	Config    metricsConfigEcho `json:"config"`
}

// clusterBody summarizes the routing tier: shard pool shape plus the
// decision and steal counters summed over shards (the per-shard split is
// in the shards array).
type clusterBody struct {
	Shards   int    `json:"shards"`
	Policy   string `json:"route_policy"`
	Degraded int    `json:"shards_degraded"`
	Routed   int64  `json:"routed"`
	Rerouted int64  `json:"rerouted"`
	Avoided  int64  `json:"avoided"`
	Steals   int64  `json:"batches_stolen"`
}

type checksBody struct {
	core.StatsSnapshot
	PassRate          float64          `json:"pass_rate"`
	ThresholdOnlyRate float64          `json:"threshold_only_rate"`
	Outcomes          map[string]int64 `json:"outcomes"`
}

type queueBody struct {
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
}

type metricsConfigEcho struct {
	MaxBatch    int     `json:"max_batch"`
	FlushUs     float64 `json:"flush_us"`
	Workers     int     `json:"workers"`
	QueueCap    int     `json:"queue_cap"`
	Shards      int     `json:"shards"`
	RoutePolicy string  `json:"route_policy"`
	MapEnabled  bool    `json:"map_enabled"`
	Prefilter   bool    `json:"prefilter"`
	PrefilterTh float64 `json:"prefilter_threshold,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.ContentType)
		s.reg.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.buildMetricsBody())
}

// buildMetricsBody assembles the /metrics JSON document (shared with the
// flight recorder's metrics.json).
func (s *Server) buildMetricsBody() metricsBody {
	extDepth, extCap := queueTotals(s.shards, extLane)
	body := metricsBody{
		MetricsSnapshot: s.met.Snapshot(extDepth, extCap),
		UptimeSec:       time.Since(s.started).Seconds(),
		Build:           s.cfg.Build,
		Shards:          s.ShardSnapshots(),
		Config: metricsConfigEcho{
			MaxBatch:    s.cfg.Batch.MaxBatch,
			FlushUs:     float64(s.cfg.Batch.FlushInterval.Nanoseconds()) / 1e3,
			Workers:     s.cfg.Batch.Workers,
			QueueCap:    s.cfg.Batch.QueueCap,
			Shards:      len(s.shards),
			RoutePolicy: s.router.policy.Name(),
			MapEnabled:  s.mapEnabled(),
			Prefilter:   s.prefilterOn(),
			PrefilterTh: s.prefilterThreshold(),
		},
	}
	cluster := clusterBody{Shards: len(s.shards), Policy: s.router.policy.Name()}
	for _, snap := range body.Shards {
		if snap.Degraded {
			cluster.Degraded++
		}
		cluster.Routed += snap.Routed
		cluster.Rerouted += snap.Rerouted
		cluster.Avoided += snap.Avoided
		cluster.Steals += snap.Steals
	}
	body.Cluster = &cluster
	if snap, ok := s.checksSnapshot(); ok {
		body.Checks = &checksBody{
			StatsSnapshot:     snap,
			PassRate:          snap.PassRate(),
			ThresholdOnlyRate: snap.ThresholdOnlyRate(),
			Outcomes:          snap.OutcomeCounts(),
		}
	}
	if s.cfg.Health != nil {
		// All shards share one health source (shared extender); the
		// per-engine view of a multi-engine cluster is in the shards array.
		h := s.cfg.Health()
		body.Faults = &h
	}
	if s.mapEnabled() {
		depth, capacity := queueTotals(s.shards, mapLane)
		body.MapQueue = &queueBody{Depth: depth, Cap: capacity}
	}
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		body.Index = &st
	}
	if s.trace != nil {
		ts := s.trace.TraceStats()
		body.Trace = &ts
	}
	return body
}

// handleTraces exports the span rings: Chrome trace_event JSON by default
// (load into chrome://tracing or Perfetto), NDJSON with ?format=ndjson,
// optionally filtered to one request with ?trace=<request id>. A single
// trace view is stitched: the head-sampled ring spans merge with the
// tail-retained journey (when kept) and with the device-layer spans
// linked from its kernel spans, so the timeline follows the request
// through router pick, batcher, steal, kernel tier and checker/rerun
// coherently. ?trace=<id>&format=journey returns a JSON document with
// the per-stage budget attribution (fractions of total).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		s.writeError(w, http.StatusNotFound, "", "tracing disabled: restart with a positive trace sample rate")
		return
	}
	var spans []obs.SpanData
	if tid := r.URL.Query().Get("trace"); tid != "" {
		id, _ := obs.RequestID(tid)
		spans = s.trace.TraceSpans(id)
		jd, kept := s.trace.Journey(id)
		if kept {
			spans = mergeSpans(spans, jd.Spans)
		}
		spans = s.stitchLinked(spans)
		if r.URL.Query().Get("format") == "journey" {
			doc := struct {
				Trace       string          `json:"trace"`
				Events      []string        `json:"events,omitempty"`
				Verdict     []string        `json:"verdict,omitempty"`
				Attribution obs.Attribution `json:"attribution"`
				Spans       []obs.SpanData  `json:"spans"`
			}{Trace: obs.FormatID(id), Attribution: obs.Attribute(spans), Spans: spans}
			if kept {
				doc.Events, doc.Verdict = jd.Events, jd.Verdict
			}
			writeJSON(w, http.StatusOK, doc)
			return
		}
	} else {
		spans = s.trace.Snapshot()
	}
	s.writeTraceExport(w, r, spans)
}

// mergeSpans unions two span sets, dropping duplicates (a head-sampled
// request records the same span into the ring and its journey buffer).
func mergeSpans(a, b []obs.SpanData) []obs.SpanData {
	type key struct {
		k          obs.Kind
		start, dur int64
		v1, v2     int64
	}
	seen := make(map[key]bool, len(a))
	out := a
	for _, sd := range a {
		seen[key{sd.Kind, sd.Start, sd.Dur, sd.V1, sd.V2}] = true
	}
	for _, sd := range b {
		k := key{sd.Kind, sd.Start, sd.Dur, sd.V1, sd.V2}
		if !seen[k] {
			seen[k] = true
			out = append(out, sd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// stitchLinked pulls in the device-layer spans each kernel span links to
// (positive links are device batch keys; negative links name index
// generations and have no separate trace to fetch).
func (s *Server) stitchLinked(spans []obs.SpanData) []obs.SpanData {
	seen := map[int64]bool{}
	out := spans
	for _, sd := range spans {
		if sd.Kind != obs.KindKernel || sd.Link <= 0 || seen[sd.Link] {
			continue
		}
		seen[sd.Link] = true
		out = append(out, s.trace.TraceSpans(obs.BatchTraceID(sd.Link))...)
	}
	if len(out) > len(spans) {
		sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	}
	return out
}

// handleJourneys lists the tail-retained request journeys (newest
// first), or one journey with ?trace=<id>.
func (s *Server) handleJourneys(w http.ResponseWriter, r *http.Request) {
	if !s.trace.TailEnabled() {
		s.writeError(w, http.StatusNotFound, "", "tail retention disabled: restart with -trace-tail")
		return
	}
	if tid := r.URL.Query().Get("trace"); tid != "" {
		id, _ := obs.RequestID(tid)
		jd, ok := s.trace.Journey(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "", "no retained journey for trace %s", tid)
			return
		}
		writeJSON(w, http.StatusOK, jd)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Retained int               `json:"retained"`
		Journeys []obs.JourneyData `json:"journeys"`
	}{Retained: s.trace.TraceStats().TailRetained, Journeys: s.trace.Journeys()})
}

// handleSLO reports the burn-rate engine's full state. A tick runs
// first, so the reply reflects the counters as of this scrape even when
// the background sampler is off (tests, short-lived processes).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.slo.Tick()
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// handleTracesSlow exports the always-retained top-K slowest request
// spans, slowest first — the tail survives even aggressive sampling.
func (s *Server) handleTracesSlow(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		s.writeError(w, http.StatusNotFound, "", "tracing disabled: restart with a positive trace sample rate")
		return
	}
	s.writeTraceExport(w, r, s.trace.SlowSnapshot())
}

func (s *Server) writeTraceExport(w http.ResponseWriter, r *http.Request, spans []obs.SpanData) {
	_, epochWall := s.trace.Epoch()
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteNDJSON(w, epochWall, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, epochWall, spans)
}

// reloadBody is the POST /admin/reload reply.
type reloadBody struct {
	OK         bool   `json:"ok"`
	Generation uint64 `json:"generation"` // serving generation after the attempt
	Error      string `json:"error,omitempty"`
}

// handleReload triggers a hot reload of the reference index store (the
// HTTP twin of SIGHUP). The call is synchronous and bounded by the
// store's retry budget: 200 with the new generation on success, 500
// with the rollback error when every attempt failed — in which case
// the previous generation is still serving and /healthz reports the
// degraded-reload state.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	_, ridStr := requestID(w, r)
	if s.cfg.RefStore == nil {
		s.writeError(w, http.StatusNotFound, ridStr, "no reference index store: server started without -index-store")
		return
	}
	gen, err := s.cfg.RefStore.Reload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, reloadBody{OK: false, Generation: gen, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, reloadBody{OK: true, Generation: gen})
}

// handleHealthz reports the cluster's load-balancer view: "draining"
// answers 503 (admission is closed on every shard — nothing can serve;
// take the instance out of rotation), while "degraded" answers 200 (one
// or more shards fell back to host-only full-band mode; the router sends
// traffic around them, and even an all-degraded pool still serves exact
// results — slower, never wrong, so the LB must not evict it). The shard
// tally and per-shard breaker states ride along for operators; every
// value is a string so minimal clients can decode the body uniformly.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	degraded := 0
	breakers := make([]string, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.health == nil {
			continue
		}
		h := sh.health()
		if h.Degraded {
			degraded++
		}
		breakers = append(breakers, h.Breaker)
	}
	body := map[string]string{
		"shards":          strconv.Itoa(len(s.shards)),
		"shards_degraded": strconv.Itoa(degraded),
	}
	if s.mapEnabled() {
		if s.prefilterOn() {
			body["prefilter"] = "on"
		} else {
			body["prefilter"] = "off"
		}
	}
	// Index lifecycle: a degraded-reload store (last reload rolled back)
	// still serves exact results from the previous generation, so like
	// breaker degradation it answers 200 — the LB must not evict it, but
	// operators see the state and the rollback counters.
	indexDegraded := false
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		body["index_generation"] = strconv.FormatUint(st.Generation, 10)
		body["index_reloads"] = strconv.FormatInt(st.Reloads, 10)
		body["index_reload_failures"] = strconv.FormatInt(st.ReloadFailures, 10)
		body["index_rollbacks"] = strconv.FormatInt(st.Rollbacks, 10)
		if st.DegradedReload {
			body["index_state"] = "degraded-reload"
			indexDegraded = true
		} else {
			body["index_state"] = "ok"
		}
	}
	// The SLO burn-rate engine rides along as a note, not a status flip:
	// burning error budget is an alerting concern, and the endpoints are
	// still serving — the LB keeps the instance in rotation.
	if s.slo.Snapshot().Degraded {
		body["slo"] = "degraded-slo"
	} else {
		body["slo"] = "ok"
	}
	if degraded > 0 || indexDegraded {
		body["status"] = "degraded"
		if degraded > 0 {
			if len(s.shards) == 1 {
				body["breaker"] = breakers[0]
			} else {
				body["breakers"] = strings.Join(breakers, ",")
			}
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["status"] = "ok"
	writeJSON(w, http.StatusOK, body)
}
