package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/chain"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/refstore"
	"seedex/internal/server"
)

// replayBatch is the job count of one replayed check batch (seedex-serve's
// default -max-batch).
const replayBatch = 64

// Span names of the replay; each wraps one call into a layer's public
// function.
const (
	spanDecode = "server.decode"             // json.Unmarshal of a request body + genome.Encode
	spanEncode = "server.encode"             // json encoding of the reply
	spanBatch  = "core.batch"                // parent of one 64-job batch
	spanKernel = "align.ExtendBandedBatchWS" // the packed banded kernel alone
	spanCheck  = "core.CheckBatch"           // kernel + optimality checks
	spanRerun  = "core.Rerun"                // host full-band rerun of one failed job
	spanMap    = "bwamem.Map"                // Mapper.Map of one read
	spanSeed   = "bwamem.Seeder"             // the aligner's Seeder, per call
	spanExtend = "bwamem.Extender"           // the aligner's Extender, per call
)

// replayCounts are the work counts the replay observed.
type replayCounts struct {
	jobs, reruns int
	cells        int64
	reads        int
	mapped       int
	extensions   int
	wireItems    int
}

// checkConfig is the checker configuration seedex-serve runs for mode.
func checkConfig(mode string) core.Config {
	cfg := core.New(band).Config
	if mode == "paper" {
		cfg.Mode = core.ModePaper
	}
	return cfg
}

// replayWire decodes every request body as the server does and encodes
// the reply the reference answers would make.
func replayWire(in *inputs, rec *recorder, n *replayCounts) error {
	var buf bytes.Buffer
	for i, req := range in.firstPass() {
		rec.begin(spanDecode, i)
		if in.w.isMap() {
			var r server.MapRequest
			if err := json.Unmarshal(req.body, &r); err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			for _, rd := range r.Reads {
				genome.Encode(rd.Seq)
			}
		} else {
			var r server.ExtendRequest
			if err := json.Unmarshal(req.body, &r); err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			for _, j := range r.Jobs {
				genome.Encode(j.Query)
				genome.Encode(j.Target)
			}
		}
		rec.end()
		reply := in.referenceReply(req)
		buf.Reset()
		rec.begin(spanEncode, i)
		err := json.NewEncoder(&buf).Encode(reply)
		rec.end()
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		n.wireItems += len(req.items)
	}
	return nil
}

// replayChecks runs every harvested problem through the packed kernel,
// the check workflow and the host rerun, 64 jobs at a time. The kernel
// is timed in a call of its own, so the checks' self time is CheckBatch
// minus the kernel.
func replayChecks(in *inputs, rec *recorder, n *replayCounts) {
	cfg := checkConfig(in.w.Mode)
	chk := core.NewChecker(cfg)
	ws := align.NewWorkspace()
	order := make([]int, 0, len(in.problems))
	if in.w.isMap() {
		for i := range in.problems {
			order = append(order, i)
		}
	} else {
		for _, req := range in.firstPass() {
			order = append(order, req.items...)
		}
	}
	jobs := make([]align.Job, 0, replayBatch)
	reqs := make([]core.Request, 0, replayBatch)
	res := make([]align.ExtendResult, replayBatch)
	bds := make([]align.BandBoundary, replayBatch)
	var resp []core.Response
	for b, lo := 0, 0; lo < len(order); b, lo = b+1, lo+replayBatch {
		jobs, reqs = jobs[:0], reqs[:0]
		for k, i := range order[lo:min(lo+replayBatch, len(order))] {
			p := in.problems[i]
			jobs = append(jobs, align.Job{Q: p.Q, T: p.T, H0: p.H0})
			reqs = append(reqs, core.Request{Q: p.Q, T: p.T, H0: p.H0, Tag: k})
		}
		rec.begin(spanBatch, b)
		rec.begin(spanKernel, b)
		align.ExtendBandedBatchWS(ws, jobs, cfg.Scoring, cfg.Band, res[:len(jobs)], bds[:len(jobs)])
		rec.end()
		rec.begin(spanCheck, b)
		resp, _ = chk.CheckBatch(reqs, resp)
		rec.end()
		for _, r := range resp {
			if r.Rerun {
				q := reqs[r.Tag]
				rec.begin(spanRerun, b)
				chk.Rerun(q.Q, q.T, q.H0)
				rec.end()
				n.reruns++
			}
		}
		rec.end()
		for _, r := range res[:len(jobs)] {
			n.cells += r.Cells
		}
		n.jobs += len(jobs)
	}
}

// timedSeeder and timedExtender wrap the aligner's public Seeder and
// Extender fields with spans. The extender keeps Session and ExtendJobs
// of the SeedEx engine it wraps, so the mapper takes the same batch path
// as without the wrapper.
type timedSeeder struct {
	inner bwamem.Seeder
	rec   *recorder
	trace *int
}

func (s timedSeeder) Seeds(q []byte) []chain.Seed {
	s.rec.begin(spanSeed, *s.trace)
	defer s.rec.end()
	return s.inner.Seeds(q)
}

type timedExtender struct {
	inner align.Extender
	rec   *recorder
	trace *int
}

func (e *timedExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	e.rec.begin(spanExtend, *e.trace)
	defer e.rec.end()
	return e.inner.Extend(q, t, h0)
}

func (e *timedExtender) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	e.rec.begin(spanExtend, *e.trace)
	defer e.rec.end()
	return e.inner.(align.BatchExtender).ExtendJobs(jobs, dst)
}

func (e *timedExtender) Session() align.Extender {
	return &timedExtender{inner: e.inner.(align.SessionExtender).Session(), rec: e.rec, trace: e.trace}
}

// replayMap maps every read with the engine seedex-serve runs, a parent
// span per read and child spans around the seeder and extender calls.
func replayMap(in *inputs, rec *recorder, n *replayCounts) {
	se := core.New(band)
	se.Config = checkConfig(in.w.Mode)
	a := bwamem.NewWithIndex(in.cref, in.index, se)
	read := 0
	a.Seeder = timedSeeder{inner: a.Seeder, rec: rec, trace: &read}
	a.Extender = &timedExtender{inner: se, rec: rec, trace: &read}
	m := a.NewMapper()
	for i, r := range in.reads {
		read = i
		seq := genome.Encode(genome.Decode(r.Seq))
		rec.begin(spanMap, i)
		_, al := m.Map(r.ID, seq, r.Qual)
		rec.end()
		n.reads++
		n.extensions += al.Extensions
		if al.Mapped {
			n.mapped++
		}
	}
}

// indexTimes are the reference-index lifecycle timings.
type indexTimes struct {
	build, load, warmup time.Duration
}

// openIndex times refstore.Open of the container at path, in process.
func openIndex(path string) (load, warmup time.Duration, err error) {
	st, err := refstore.Open(path, refstore.Options{})
	if err != nil {
		return 0, 0, fmt.Errorf("opening index store: %w", err)
	}
	defer st.Close()
	g := st.Acquire()
	defer g.Release()
	return g.LoadDuration(), g.WarmupDuration(), nil
}
