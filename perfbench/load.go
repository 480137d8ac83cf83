package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one closed-loop phase observed from the client side.
type loadResult struct {
	attempted int // requests sent
	failed    int // non-200, transport error, or any wrong answer
	wrong     int // answers that differ from the full-band reference
	verified  int // items in requests whose every answer was right
	latencies []time.Duration
	elapsed   time.Duration
}

func (r *loadResult) add(o loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.verified += o.verified
	r.latencies = append(r.latencies, o.latencies...)
}

// loadGen drives the server with closed-loop clients: each client owns
// one keep-alive connection and sends its next request only after the
// previous reply arrived and was checked. Clients keep their place in the
// rotation across phases.
type loadGen struct {
	in      *inputs
	url     string
	clients []*http.Client
	cursor  []int
}

func newLoadGen(in *inputs, addr string) *loadGen {
	g := &loadGen{in: in, url: "http://" + addr + in.w.Endpoint}
	for c := 0; c < clients; c++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
		g.cursor = append(g.cursor, c*len(in.requests)/clients)
	}
	return g
}

func (g *loadGen) close() {
	for _, cl := range g.clients {
		cl.CloseIdleConnections()
	}
}

// send posts one request and checks a 200 reply against the reference.
// A transport error reports status 0.
func (g *loadGen) send(ctx context.Context, cl *http.Client, req request) (status, wrong int) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(req.body))
	if err != nil {
		return 0, 0
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(hr)
	if err != nil {
		return 0, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0
	}
	return resp.StatusCode, g.in.verify(req, body)
}

// Clean-window policy: a phase is timed in windows, and a window in
// which the hypervisor gave more than maxSteal of the host's CPU time to
// other guests measured the host rather than the program. Such windows
// still count for correctness but not for the metrics; the phase runs on
// until the clean windows add up to the requested length, or for twice
// that length at most.
const (
	windowLen = time.Second
	maxSteal  = 0.05
)

// sampler reads the server's CPU time and the host's steal and total
// CPU ticks.
type sampler func() (cpu time.Duration, steal, ticks int64, err error)

// window is the part of a phase between two samples.
type window struct {
	loadResult                 // requests that completed in the window
	cpu          time.Duration // server CPU
	steal, ticks int64         // host steal and total CPU ticks
}

func (w window) clean() bool { return float64(w.steal) <= maxSteal*float64(w.ticks) }

// phaseLoad is one load phase as the metrics see it.
type phaseLoad struct {
	all      loadResult    // every request, for the correctness counts
	kept     loadResult    // requests of the counted windows; elapsed is their total length
	cpu      time.Duration // server CPU over the counted windows
	stealPct float64       // host CPU time stolen over the whole phase
	windows  int
	counted  int
}

// run drives every client until clean windows add up to d (every window
// is clean without a sampler). With recs non-nil, client c records a span
// around each request into recs[c].
func (g *loadGen) run(ctx context.Context, d time.Duration, recs []*recorder, sample sampler) (phaseLoad, error) {
	if sample == nil {
		sample = func() (time.Duration, int64, int64, error) { return 0, 0, 0, nil }
	}
	var (
		mu   sync.Mutex
		cur  = new(window)
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	c0, s0, t0, err := sample()
	if err != nil {
		return phaseLoad{}, err
	}
	start := time.Now()
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := g.cursor[c]
				g.cursor[c] = (i + 1) % len(g.in.requests)
				req := g.in.requests[i]
				if recs != nil {
					recs[c].begin("http"+g.in.w.Endpoint, i)
				}
				t0 := time.Now()
				status, wrong := g.send(ctx, g.clients[c], req)
				lat := time.Since(t0)
				if recs != nil {
					recs[c].end()
				}
				mu.Lock()
				w := &cur.loadResult
				w.latencies = append(w.latencies, lat)
				w.attempted++
				w.wrong += wrong
				if status == http.StatusOK && wrong == 0 {
					w.verified += len(req.items)
				} else {
					w.failed++
				}
				mu.Unlock()
			}
		}(c)
	}

	var (
		windows []window
		clean   time.Duration
		last    = start
	)
	tick := time.NewTicker(min(windowLen, d))
	defer tick.Stop()
	for clean < d && time.Since(start) < 2*d && err == nil {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-tick.C:
		}
		var c1 time.Duration
		var s1, t1 int64
		if c1, s1, t1, err = sample(); err != nil {
			continue
		}
		now := time.Now()
		mu.Lock()
		w := *cur
		cur = new(window)
		mu.Unlock()
		w.elapsed, w.cpu, w.steal, w.ticks = now.Sub(last), c1-c0, s1-s0, t1-t0
		last, c0, s0, t0 = now, c1, s1, t1
		if w.clean() {
			clean += w.elapsed
		}
		windows = append(windows, w)
	}
	stop.Store(true)
	wg.Wait()

	var p phaseLoad
	p.all = cur.loadResult // completed after the last window closed
	var steal, ticks int64
	for _, w := range windows {
		p.all.add(w.loadResult)
		steal += w.steal
		ticks += w.ticks
	}
	p.stealPct = 100 * ratio(float64(steal), float64(ticks))
	// Count the clean windows when they cover at least half the requested
	// length; on a host that stayed busy throughout, count every window.
	keepAll := clean < d/2
	for _, w := range windows {
		if keepAll || w.clean() {
			p.kept.add(w.loadResult)
			p.kept.elapsed += w.elapsed
			p.cpu += w.cpu
			p.counted++
		}
	}
	p.windows = len(windows)
	return p, err
}
