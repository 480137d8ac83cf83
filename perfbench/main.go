// Command perfbench is the repository's served benchmark. It boots the
// seedex-serve binary built from the checkout, drives it over loopback
// with closed-loop clients, checks every reply against a full-band
// reference, and prints the end-to-end metrics; with -trace 1 it serves
// the load again with spans and replays the same inputs through each
// layer's public functions for the per-layer metrics.
//
// Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload extend-strict --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"seedex/internal/refstore"
)

// setupLaunches is how many times a run boots the server to measure
// setup_s (the median is reported; the last server stays up).
const setupLaunches = 9

// warmup is the unmeasured load before the measured phase.
const warmup = time.Second

// replayPasses is how often the wire and check replays walk their inputs;
// one pass over a few thousand jobs takes well under a second.
const replayPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: extend-strict | extend-paper | map")
	seed := fs.Int64("seed", 1, "master seed: drives the genome, the reads, the harvest and the request rotation")
	seconds := fs.Int("seconds", 15, "measured seconds of load (a traced run splits them between an untraced and a traced phase)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and a replay")
	bin := fs.String("server", ".bench_build/bin/seedex-serve", "seedex-serve binary")
	out := fs.String("out", ".bench_build/perfbench", "directory for result files, spans and the index container")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		if err := compare(fs.Args()[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, out: *out}
	res, err := measure(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, cfg.seed, *trace))); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if res.Wrong > 0 && w.Mode == "strict" {
		fmt.Fprintf(stderr, "perfbench: %d answers differ from the full-band reference on %s\n", res.Wrong, w.Name)
		return 1
	}
	return 0
}

type runConfig struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	bin     string
	out     string
}

// measure is one benchmark run. Every server it starts is stopped and
// reaped before it returns, on every path.
func measure(ctx context.Context, cfg runConfig, logw io.Writer) (*result, error) {
	w := cfg.w
	logf := func(format string, a ...any) { fmt.Fprintf(logw, "perfbench: "+format+"\n", a...) }

	t0 := time.Now()
	in, err := buildInputs(w, cfg.seed, cfg.trace)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: %d items in %d requests (body hash %s), inputs built in %.1fs",
		w.Name, cfg.seed, in.items(), len(in.requests), in.bodyHash, time.Since(t0).Seconds())

	var idx indexTimes
	indexPath := ""
	if w.isMap() || cfg.trace {
		indexPath, err = filepath.Abs(filepath.Join(cfg.out, "index", fmt.Sprintf("%s-seed%d.sedx", w.Name, cfg.seed)))
		if err == nil {
			err = os.MkdirAll(filepath.Dir(indexPath), 0o755)
		}
		if err != nil {
			return nil, err
		}
		tw := time.Now()
		if _, err := refstore.WriteFile(indexPath, in.cref, in.index); err != nil {
			return nil, fmt.Errorf("writing index container: %w", err)
		}
		idx.build = in.indexBuild + time.Since(tw)
		defer os.Remove(indexPath)
	}

	srv, boots, err := boot(ctx, cfg, in, indexPath)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	if err != nil {
		return nil, err
	}
	all := boots.first
	lg := newLoadGen(in, srv.addr)
	defer lg.close()
	wu, err := lg.run(ctx, warmup, nil, nil)
	if err != nil {
		return nil, err
	}
	all.add(wu.all)

	// A traced run splits its measured time between the untraced and the
	// traced phase, so it takes as long as an untraced run.
	length := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		length /= 2
	}
	sample := func() (time.Duration, int64, int64, error) {
		cpu, err := srv.cpuTime()
		if err != nil {
			return 0, 0, 0, err
		}
		steal, ticks, err := hostTicks()
		return cpu, steal, ticks, err
	}
	phase := func(recs []*recorder) (p phaseResult, err error) {
		if p.before, err = srv.scrape(ctx); err != nil {
			return p, err
		}
		if p.load, err = lg.run(ctx, length, recs, sample); err != nil {
			return p, err
		}
		p.after, err = srv.scrape(ctx)
		return p, err
	}
	ph, err := phase(nil)
	if err != nil {
		return nil, err
	}
	all.add(ph.load.all)
	meas := ph.load.kept
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if meas.verified == 0 {
		return nil, fmt.Errorf("no verified items in the measured phase (%d requests, %d failed)", meas.attempted, meas.failed)
	}
	cpuPerItem := ph.load.cpu.Seconds() / float64(meas.verified)
	logf("measured %d of %d one-second windows (the rest lost over %.0f%% of host CPU to the hypervisor); %.1f%% stolen overall",
		ph.load.counted, ph.load.windows, 100*maxSteal, ph.load.stealPct)
	res := &result{Workload: w.Name, Trace: cfg.trace, Metrics: map[string]metricValue{}}
	res.Fingerprint = newFingerprint(cfg, in, ph.after.json, sourceID("."))
	res.E2E = endToEnd{
		throughput: float64(meas.verified) / meas.elapsed.Seconds(),
		p50:        quantile(meas.latencies, 0.50).Seconds() * 1e3,
		p99:        quantile(meas.latencies, 0.99).Seconds() * 1e3,
		samples:    len(meas.latencies),
		stealPct:   ph.load.stealPct,
		cpuPerK:    cpuPerItem * 1e6, // ms per 1000 items
		errorRate:  float64(ph.load.all.failed) / float64(ph.load.all.attempted),
		wrong:      ph.load.all.wrong,
		setup:      median(boots.setups),
		rss:        rss,
	}

	if cfg.trace {
		recs := make([]*recorder, clients)
		epoch := time.Now()
		for c := range recs {
			recs[c] = newRecorder(epoch)
		}
		tr, err := phase(recs)
		if err != nil {
			return nil, err
		}
		all.add(tr.load.all)
		srv.stop()
		srv = nil

		rec := newRecorder(time.Now())
		var n replayCounts
		for pass := 0; pass < replayPasses; pass++ {
			if err := replayWire(in, rec, &n); err != nil {
				return nil, err
			}
			replayChecks(in, rec, &n)
		}
		replayMap(in, rec, &n)
		loads, warms := boots.loads, boots.warmups
		if !w.isMap() {
			for k := 0; k < 3; k++ {
				l, wu, err := openIndex(indexPath)
				if err != nil {
					return nil, err
				}
				loads, warms = append(loads, l.Seconds()), append(warms, wu.Seconds())
			}
		}
		idx.load = time.Duration(median(loads) * float64(time.Second))
		idx.warmup = time.Duration(median(warms) * float64(time.Second))
		res.SpanFile = filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.ndjson", w.Name, cfg.seed))
		if err := writeSpans(res.SpanFile, append(recs, rec)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.Layers = perLayer(in, rec.aggregate(), n, servedPhases{
			traced:       tr,
			index:        idx,
			cpuPerItem:   cpuPerItem,
			untracedTput: res.E2E.throughput,
		})
	}
	res.Attempted, res.Failed, res.Wrong = all.attempted, all.failed, all.wrong
	res.finish()
	return res, nil
}

// phaseResult is one measured load phase with the /metrics scrapes
// around it.
type phaseResult struct {
	load          phaseLoad
	before, after scrape
}

// bootStats is what the setup boots measured.
type bootStats struct {
	setups         []float64  // seconds from launch to first successful request
	loads, warmups []float64  // the map server's index load and warmup gauges
	first          loadResult // the first requests, checked like any other
}

// boot starts the server setupLaunches times and stops all but the last
// one, which it returns (with a non-nil error too, so the caller always
// stops it).
func boot(ctx context.Context, cfg runConfig, in *inputs, indexPath string) (*child, bootStats, error) {
	var (
		srv *child
		b   bootStats
		err error
	)
	for k := 0; k < setupLaunches; k++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startChild(ctx, cfg.bin, in.w.serverArgs(indexPath)); err != nil {
			return nil, b, err
		}
		wrong, err := firstRequest(ctx, srv, in)
		if err != nil {
			return srv, b, fmt.Errorf("first request: %w; stderr tail:\n%s", err, srv.logTail())
		}
		b.setups = append(b.setups, time.Since(srv.started).Seconds())
		b.first.add(loadResult{attempted: 1, wrong: wrong, failed: min(wrong, 1)})
		if in.w.isMap() && cfg.trace {
			sc, err := srv.scrape(ctx)
			if err != nil {
				return srv, b, err
			}
			b.loads = append(b.loads, sc.prom["seedex_index_load_seconds"])
			b.warmups = append(b.warmups, sc.prom["seedex_index_warmup_seconds"])
		}
	}
	return srv, b, nil
}

// firstRequest sends the rotation's first request until the server
// answers it with 200 (it may still be finishing start-up), and returns
// how many of the reply's answers are wrong.
func firstRequest(ctx context.Context, srv *child, in *inputs) (int, error) {
	g := newLoadGen(in, srv.addr)
	defer g.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if status, wrong := g.send(ctx, g.clients[0], in.requests[0]); status == http.StatusOK {
			return wrong, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return 0, errors.New("no successful reply within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
