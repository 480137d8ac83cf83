package bwamem

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/ert"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

func simWorld(t *testing.T, refLen, nReads int, seed int64) ([]byte, []readsim.Read) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Simulate(genome.SimConfig{Length: refLen, RepeatFraction: 0.05}, rng)
	reads := readsim.Simulate(ref, readsim.DefaultConfig(nReads), rng)
	return ref, reads
}

func toPipelineReads(reads []readsim.Read) []Read {
	out := make([]Read, len(reads))
	for i, r := range reads {
		out[i] = Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	return out
}

// TestAccuracyAgainstGroundTruth: the aligner must recover the simulated
// origin for the overwhelming majority of reads.
func TestAccuracyAgainstGroundTruth(t *testing.T) {
	ref, reads := simWorld(t, 60_000, 300, 1)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	correct, mapped := 0, 0
	for _, r := range reads {
		al := a.AlignRead(r.Seq)
		if !al.Mapped {
			continue
		}
		mapped++
		d := al.Pos - r.TruePos
		if d < 0 {
			d = -d
		}
		if d <= 12 && al.Rev == r.RevComp {
			correct++
		}
	}
	if mapped < len(reads)*95/100 {
		t.Fatalf("mapped %d/%d reads", mapped, len(reads))
	}
	if correct < mapped*95/100 {
		t.Fatalf("correct %d/%d mapped reads", correct, mapped)
	}
	t.Logf("mapped %d/%d, correct %d", mapped, len(reads), correct)
}

// TestSeedExPipelineBitEquivalence is the paper's headline validation at
// pipeline level: SAM from the SeedEx extender is byte-identical to SAM
// from the full-band extender, for every band setting (Figure 13's
// SeedEx series is identically zero).
func TestSeedExPipelineBitEquivalence(t *testing.T) {
	ref, reads := simWorld(t, 50_000, 250, 2)
	full, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, _ := full.Run(toPipelineReads(reads), 4)
	for _, w := range []int{3, 10, 20} {
		se := core.New(w)
		a, err := New("chrSim", ref, se)
		if err != nil {
			t.Fatal(err)
		}
		gotRecs, _ := a.Run(toPipelineReads(reads), 4)
		for i := range wantRecs {
			if gotRecs[i].String() != wantRecs[i].String() {
				t.Fatalf("w=%d read %d: SAM differs\n seedex: %s\n full:   %s", w, i, gotRecs[i], wantRecs[i])
			}
		}
		if se.Stats.Total.Load() == 0 {
			t.Fatal("no extensions went through the checker")
		}
		t.Logf("w=%d: %s", w, se.Stats)
	}
}

// TestBandedPipelineDiffers: the plain banded heuristic (no checks) must
// produce output differences at small bands — the effect Figure 13
// quantifies and SeedEx eliminates.
func TestBandedPipelineDiffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := genome.Simulate(genome.SimConfig{Length: 50_000}, rng)
	// Indel-rich workload: ~1/3 of reads carry an indel, many longer than
	// one base, so a w=1 band must miss optimal paths.
	cfg := readsim.DefaultConfig(400)
	cfg.IndelRate = 0.004
	reads := readsim.Simulate(ref, cfg, rng)
	full, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, _ := full.Run(toPipelineReads(reads), 4)
	banded, err := New("chrSim", ref, core.Banded{Scoring: align.DefaultScoring(), Band: 1})
	if err != nil {
		t.Fatal(err)
	}
	banded.Opts.TraceBand = 1
	gotRecs, _ := banded.Run(toPipelineReads(reads), 4)
	diffs := 0
	for i := range wantRecs {
		if gotRecs[i].String() != wantRecs[i].String() {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("w=1 banded pipeline produced zero differences; Figure 13's effect is absent")
	}
	t.Logf("w=1 banded pipeline: %d/%d SAM entries differ", diffs, len(reads))
}

func TestERTSeederPipeline(t *testing.T) {
	ref, reads := simWorld(t, 40_000, 120, 4)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	a.Seeder = ERTSeeder{Index: ert.Build(a.Ref, ert.K), Cfg: ert.DefaultConfig()}
	correct, mapped := 0, 0
	for _, r := range reads {
		al := a.AlignRead(r.Seq)
		if !al.Mapped {
			continue
		}
		mapped++
		d := al.Pos - r.TruePos
		if d < 0 {
			d = -d
		}
		if d <= 12 && al.Rev == r.RevComp {
			correct++
		}
	}
	if mapped < len(reads)*90/100 || correct < mapped*90/100 {
		t.Fatalf("ERT seeding: mapped %d/%d correct %d", mapped, len(reads), correct)
	}
}

func TestSAMRecordsValid(t *testing.T) {
	ref, reads := simWorld(t, 30_000, 150, 5)
	a, err := New("chrSim", ref, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	recs, stats := a.Run(toPipelineReads(reads), 0)
	if stats.Reads != len(reads) || stats.Extensions == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if stats.SeedingNs <= 0 || stats.ExtensionNs <= 0 {
		t.Fatalf("stage times not recorded: %+v", stats)
	}
}

func TestCigarScoreConsistency(t *testing.T) {
	// The rescored CIGAR of the winning alignment must equal the reported
	// alignment score.
	ref, reads := simWorld(t, 30_000, 120, 6)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range reads {
		al := a.AlignRead(r.Seq)
		if !al.Mapped {
			continue
		}
		q := r.Seq
		if al.Rev {
			q = genome.RevComp(r.Seq)
		}
		tgt := a.Ref[al.Pos : al.Pos+al.Cigar.TargetLen()]
		if got := al.Cigar.Score(q, tgt, 0, a.Scoring); got != al.Score {
			t.Fatalf("read %s: cigar %s rescores to %d, alignment says %d", r.ID, al.Cigar, got, al.Score)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no mapped reads to check")
	}
}

func TestUnmappableRead(t *testing.T) {
	ref, _ := simWorld(t, 30_000, 1, 7)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 50)
	for i := range junk {
		junk[i] = genome.N
	}
	al := a.AlignRead(junk)
	if al.Mapped {
		t.Fatal("all-N read must not map")
	}
	rec := ToSAM("junk", junk, nil, "chrSim", al)
	if rec.Flag&0x4 == 0 {
		t.Fatal("unmapped flag missing")
	}
}

// TestInstrumentedExtender covers the job-recording wrapper used by the
// FPGA replay model.
func TestInstrumentedExtender(t *testing.T) {
	ie := &InstrumentedExtender{Inner: core.FullBand{Scoring: align.DefaultScoring()}, KeepJobs: true}
	q := []byte{0, 1, 2, 3}
	ie.Extend(q, q, 10)
	ie.Extend(q, q, 10)
	if ie.Calls() != 2 || len(ie.Jobs()) != 2 {
		t.Fatalf("calls %d jobs %d", ie.Calls(), len(ie.Jobs()))
	}
	if ie.Jobs()[0] != (ExtJob{4, 4}) {
		t.Fatalf("job shape %+v", ie.Jobs()[0])
	}
}

// TestTraceSideMatchesFullMatrix: tracing over the submatrix up to the
// endpoint gives the same CIGAR as tracing over the whole extension
// problem, for the endpoints resolveSide picks, full-band and banded.
func TestTraceSideMatchesFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sc := align.DefaultScoring()
	a := &Aligner{Scoring: sc, Opts: DefaultOptions()}
	traced := 0
	for trial := 0; trial < 600; trial++ {
		tg := make([]byte, 10+rng.Intn(70))
		for i := range tg {
			tg[i] = byte(rng.Intn(4))
		}
		// The query follows the target with substitutions and indels.
		var q []byte
		for i := 0; i < len(tg) && len(q) < len(tg)-rng.Intn(10); i++ {
			switch r := rng.Intn(30); {
			case r == 0:
				q = append(q, byte(rng.Intn(4)), tg[i])
			case r == 1:
			case r < 4:
				q = append(q, byte(rng.Intn(4)))
			default:
				q = append(q, tg[i])
			}
		}
		if len(q) == 0 {
			continue
		}
		h0 := 5 + rng.Intn(60)
		a.Opts.TraceBand = -1
		if trial%2 == 1 {
			a.Opts.TraceBand = rng.Intn(12)
		}
		var res align.ExtendResult
		var mx *align.Matrices
		if a.Opts.TraceBand >= 0 {
			res, mx = align.NaiveExtendBanded(q, tg, h0, sc, a.Opts.TraceBand)
		} else {
			res, mx = align.NaiveExtend(q, tg, h0, sc)
		}
		_, _, qEnd, tEnd := resolveSide(res, len(q), h0, a.Opts.ClipPenalty)
		ends := [][2]int{{qEnd, tEnd}, {res.LocalQ, res.LocalT}}
		if res.Global > 0 {
			ends = append(ends, [2]int{len(q), res.GlobalT})
		}
		for _, e := range ends {
			if e[0] == 0 {
				continue
			}
			want, err := align.Traceback(mx, sc, e[1], e[0])
			if err != nil {
				t.Fatalf("trial %d: full-matrix trace: %v", trial, err)
			}
			got, err := a.traceSide(q, tg, h0, e[0], e[1])
			if err != nil {
				t.Fatalf("trial %d band %d end %v: %v", trial, a.Opts.TraceBand, e, err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d band %d end %v: submatrix cigar %s, full matrix %s", trial, a.Opts.TraceBand, e, got, want)
			}
			traced++
		}
	}
	if traced < 1000 {
		t.Fatalf("only %d endpoints traced", traced)
	}
}
