package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/readsim"
	"seedex/internal/server"
)

// band is seedex-serve's default one-sided band; the replay runs the same.
const band = 20

// clients is the closed-loop client count of every workload: the callers
// are pipelines that wait for each reply, and the box has 2 cores.
const clients = 2

// workload is one traffic mix. Every field is fixed here; the seed
// argument only chooses which genome and reads the mix is drawn from.
type workload struct {
	Name     string
	Why      string
	Endpoint string // "/v1/extend" or "/v1/map"
	Mode     string // seedex-serve -mode: "strict" or "paper"
	RefLen   int
	Reads    int
	ReadLen  int
	PerReq   int // jobs or reads per request
}

func (w workload) isMap() bool { return w.Endpoint == "/v1/map" }

// serverArgs are the flags a workload adds to seedex-serve's defaults.
func (w workload) serverArgs(indexPath string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if w.Mode != "strict" {
		args = append(args, "-mode", w.Mode)
	}
	if w.isMap() {
		args = append(args, "-index-store", indexPath)
	}
	return args
}

var workloads = []workload{
	{
		Name:     "extend-strict",
		Why:      "shipped strict mode: optimality checks and reruns dominate server CPU",
		Endpoint: "/v1/extend", Mode: "strict",
		RefLen: 300_000, Reads: 2000, ReadLen: 150, PerReq: 32,
	},
	{
		Name:     "extend-paper",
		Why:      "same inputs in paper mode: checks are cheap, so kernel and serving plumbing dominate",
		Endpoint: "/v1/extend", Mode: "paper",
		RefLen: 300_000, Reads: 2000, ReadLen: 150, PerReq: 32,
	},
	{
		Name:     "map",
		Why:      "read mapping from an index store: seeding dominates; the only path through refstore, fmindex and chain",
		Endpoint: "/v1/map", Mode: "strict",
		RefLen: 1_000_000, Reads: 2000, ReadLen: 101, PerReq: 8,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// subSeed derives an independent stream seed from the master seed
// (splitmix64 finalizer over the seed and a stream tag), so one seed
// argument drives every random choice without the streams correlating.
func subSeed(master int64, stream string) int64 {
	h := sha256.Sum256([]byte(stream))
	x := uint64(master) ^ binary.LittleEndian.Uint64(h[:8])
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// problem is one extension job harvested from the mapping pipeline.
type problem struct {
	Q, T []byte
	H0   int
}

// request is one pre-encoded request body and the items it carries
// (indices into inputs.problems or inputs.reads).
type request struct {
	body  []byte
	items []int
}

// inputs is everything a run serves, replays and checks against.
type inputs struct {
	w    workload
	seed int64

	ref   []byte
	reads []readsim.Read
	cref  *bwamem.Reference
	index *fmindex.Index
	// indexBuild is the bwamem.BuildIndex time.
	indexBuild time.Duration

	// problems are the extension jobs the aligner dispatches for reads,
	// with the full-band answer of each (align.Extend).
	problems []problem
	wantExt  []align.ExtendResult
	// wantMap is the full-band (core.FullBand) mapping of each read.
	wantMap []server.MapResult

	requests []request // the rotation every client walks
	bodyHash string
}

// items is the count of served items (jobs or reads).
func (in *inputs) items() int {
	if in.w.isMap() {
		return len(in.reads)
	}
	return len(in.problems)
}

// captureExtender records every extension the aligner asks for and
// answers with the full-band kernel. It deliberately has no batch or
// session method, so the aligner takes the per-job path, as the repo's
// kernel benchmarks harvest their problems.
type captureExtender struct {
	sc   align.Scoring
	prob []problem
	want []align.ExtendResult
}

func (c *captureExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	res := align.Extend(q, t, h0, c.sc)
	c.prob = append(c.prob, problem{Q: append([]byte(nil), q...), T: append([]byte(nil), t...), H0: h0})
	c.want = append(c.want, res)
	return res
}

// buildInputs generates a workload's genome, reads, index, full-band
// answers and request rotation from the master seed. harvest forces the
// extension-problem harvest on the map workload (the replay needs it).
func buildInputs(w workload, seed int64, harvest bool) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	in.ref = genome.Simulate(genome.SimConfig{Length: w.RefLen, RepeatFraction: 0.05},
		rand.New(rand.NewSource(subSeed(seed, "genome"))))
	cfg := readsim.RealisticConfig(w.Reads)
	cfg.ReadLen = w.ReadLen
	in.reads = readsim.Simulate(in.ref, cfg, rand.New(rand.NewSource(subSeed(seed, "reads"))))
	if len(in.reads) != w.Reads {
		return nil, fmt.Errorf("read simulation produced %d of %d reads", len(in.reads), w.Reads)
	}
	var err error
	tb := time.Now()
	in.cref, in.index, err = bwamem.BuildIndex([]bwamem.Contig{{Name: "chrSim", Seq: in.ref}})
	in.indexBuild = time.Since(tb)
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	if !w.isMap() || harvest {
		in.harvest()
	}
	if w.isMap() {
		in.mapReference()
	}
	in.buildRequests(rand.New(rand.NewSource(subSeed(seed, "rotation"))))
	return in, nil
}

// harvest maps every read once, single-threaded, through the capturing
// extender. Jobs with an empty side are dropped: the server refuses them.
func (in *inputs) harvest() {
	capt := &captureExtender{sc: align.DefaultScoring()}
	m := bwamem.NewWithIndex(in.cref, in.index, capt).NewMapper()
	for _, r := range in.reads {
		m.Map(r.ID, r.Seq, r.Qual)
	}
	for i, p := range capt.prob {
		if len(p.Q) == 0 || len(p.T) == 0 {
			continue
		}
		in.problems = append(in.problems, p)
		in.wantExt = append(in.wantExt, capt.want[i])
	}
}

// wireRead is the request form of read i.
func (in *inputs) wireRead(i int) server.MapRead {
	r := in.reads[i]
	return server.MapRead{Name: r.ID, Seq: genome.Decode(r.Seq), Qual: string(r.Qual)}
}

// mapResult renders one mapping exactly as the server's map worker does.
func mapResult(m *bwamem.Mapper, rd server.MapRead) server.MapResult {
	var qual []byte
	if rd.Qual != "" {
		qual = []byte(rd.Qual)
	}
	rec, al := m.Map(rd.Name, genome.Encode(rd.Seq), qual)
	return server.MapResult{
		Name: rd.Name, Mapped: al.Mapped, RName: rec.RName, Pos: rec.Pos, Rev: al.Rev,
		MapQ: al.MapQ, Score: al.Score, Cigar: al.Cigar.String(), Sam: rec.String(),
	}
}

// mapReference maps every read with the full-band extender over the
// same index the server loads.
func (in *inputs) mapReference() {
	m := bwamem.NewWithIndex(in.cref, in.index, core.FullBand{Scoring: align.DefaultScoring()}).NewMapper()
	in.wantMap = make([]server.MapResult, len(in.reads))
	for i := range in.reads {
		in.wantMap[i] = mapResult(m, in.wireRead(i))
	}
}

// rotationPasses is how many independent shuffles of the items the
// rotation holds. Each pass groups the items into requests differently,
// so the latency tail reflects the spread of request costs rather than
// the few heaviest requests of a single grouping.
const rotationPasses = 8

// buildRequests cuts rotationPasses shuffles of the items into requests
// of PerReq and encodes each body once. The body hash covers the whole
// rotation.
func (in *inputs) buildRequests(rng *rand.Rand) {
	h := sha256.New()
	for pass := 0; pass < rotationPasses; pass++ {
		order := rng.Perm(in.items())
		for lo := 0; lo < len(order); lo += in.w.PerReq {
			items := order[lo:min(lo+in.w.PerReq, len(order))]
			var v any
			if in.w.isMap() {
				req := server.MapRequest{Reads: make([]server.MapRead, len(items))}
				for k, i := range items {
					req.Reads[k] = in.wireRead(i)
				}
				v = req
			} else {
				req := server.ExtendRequest{Jobs: make([]server.ExtendJob, len(items))}
				for k, i := range items {
					p := in.problems[i]
					req.Jobs[k] = server.ExtendJob{Query: genome.Decode(p.Q), Target: genome.Decode(p.T), H0: p.H0}
				}
				v = req
			}
			body, err := json.Marshal(v)
			if err != nil {
				panic(err) // plain structs of strings and ints always marshal
			}
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(body)))
			h.Write(n[:])
			h.Write(body)
			in.requests = append(in.requests, request{body: body, items: items})
		}
	}
	in.bodyHash = hex.EncodeToString(h.Sum(nil))[:16]
}

// referenceReply is the reply the server should make to req, built from
// the full-band answers.
func (in *inputs) referenceReply(req request) any {
	if in.w.isMap() {
		resp := server.MapResponse{Results: make([]server.MapResult, len(req.items))}
		for k, i := range req.items {
			resp.Results[k] = in.wantMap[i]
		}
		return resp
	}
	resp := server.ExtendResponse{Results: make([]server.ExtendResult, len(req.items))}
	for k, i := range req.items {
		w := in.wantExt[i]
		resp.Results[k] = server.ExtendResult{Local: w.Local, LocalT: w.LocalT, LocalQ: w.LocalQ, Global: w.Global, GlobalT: w.GlobalT, Cells: w.Cells}
	}
	return resp
}

// firstPass is the rotation's first shuffle: every item exactly once.
func (in *inputs) firstPass() []request {
	return in.requests[:(in.items()+in.w.PerReq-1)/in.w.PerReq]
}

// verify checks one reply body against the full-band answers of req's
// items and returns how many answers are wrong. An undecodable or
// mis-sized reply counts every item wrong.
func (in *inputs) verify(req request, body []byte) int {
	if in.w.isMap() {
		var resp server.MapResponse
		if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(req.items) {
			return len(req.items)
		}
		wrong := 0
		for k, i := range req.items {
			if resp.Results[k] != in.wantMap[i] {
				wrong++
			}
		}
		return wrong
	}
	var resp server.ExtendResponse
	if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(req.items) {
		return len(req.items)
	}
	localOnly := in.w.Mode == "paper" // all that ModePaper guarantees
	wrong := 0
	for k, i := range req.items {
		got, want := resp.Results[k], in.wantExt[i]
		ok := got.Local == want.Local && got.LocalT == want.LocalT && got.LocalQ == want.LocalQ
		if !localOnly {
			ok = ok && got.Global == want.Global && got.GlobalT == want.GlobalT
		}
		if !ok {
			wrong++
		}
	}
	return wrong
}
