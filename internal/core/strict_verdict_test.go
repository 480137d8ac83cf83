package core_test

import (
	"testing"

	"seedex/internal/align"
	"seedex/internal/bench"
	"seedex/internal/core"
	"seedex/internal/editmachine"
)

// sweepVerdict is the reference strict verdict: the ModeStrict workflow
// as it ran before the closed form, reading the region bound from the
// exact relaxed sweep. Only the verdict fields, EditRan and ScoreEd (the
// sweep's ScorePlusCont) are filled in.
func sweepVerdict(q, t []byte, h0 int, cfg core.Config) (rep core.Report) {
	n, m, w, sc := len(q), len(t), cfg.Band, cfg.Scoring
	if w >= n && w >= m {
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = core.PassFullCover, true, true
		return rep
	}
	res, bd := align.ExtendBanded(q, t, h0, sc, w)
	sw := editmachine.SweepExact(q, t, w, h0, bd.E, sc, editmachine.RelaxedFor(sc))
	global := func(rep core.Report) core.Report {
		bound := 0
		if !sw.Empty && sw.ScorePlusCont > 0 {
			bound = sw.ScorePlusCont
		}
		if n > w {
			bound = max(bound, h0-sc.GapOpen-(w+1)*sc.GapExtend+(n-w-1)*sc.Match)
		}
		if bound > 0 && bound >= res.Global {
			rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = core.FailGlobal, false, false
		}
		return rep
	}
	th := core.ComputeThresholds(n, h0, w, sc, cfg.Kind)
	switch {
	case res.Local <= th.S1:
		rep.Outcome = core.FailS1
		return rep
	case res.Local > th.S2:
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = core.PassS2, true, true
		return global(rep)
	}
	if maxE, live := core.MaxEScore(bd, n, sc); live && maxE >= res.Local {
		rep.Outcome = core.FailE
		return rep
	}
	rep.EditRan = true
	if !sw.Empty {
		rep.ScoreEd = sw.ScorePlusCont
		if sw.ScorePlusCont >= res.Local {
			rep.Outcome = core.FailEdit
			return rep
		}
	}
	rep.Outcome, rep.Pass = core.PassChecks, true
	return global(rep)
}

// TestStrictVerdictsUnchanged: the closed-form strict checker reaches the
// same verdict (Outcome, Pass, ThresholdOnlyPass) as the sweep-based
// reference on the 150 bp and 100 bp bench workloads, served as 64-job
// packed batches, and on the adversarial corpus; every strict ScoreEd is
// the sweep's continuation bound.
func TestStrictVerdictsUnchanged(t *testing.T) {
	type problem struct {
		q, t []byte
		h0   int
	}
	type suite struct {
		name  string
		bands []int
		probs []problem
	}
	var suites []suite
	for _, wl := range []struct {
		name  string
		build func(refLen, nReads int, seed int64) (*bench.Workload, error)
	}{{"workload150", bench.Workload150}, {"workload100", bench.Workload100}} {
		w, err := wl.build(60_000, 150, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := suite{name: wl.name, bands: []int{3, 8, 21}}
		for _, p := range w.Problems {
			s.probs = append(s.probs, problem{p.Q, p.T, p.H0})
		}
		suites = append(suites, s)
	}
	for _, c := range core.AdversarialCorpus() {
		suites = append(suites, suite{name: c.Label, bands: []int{c.Band}, probs: []problem{{c.Q, c.T, c.H0}}})
	}

	outcomes := map[core.Outcome]int{}
	for _, s := range suites {
		for _, band := range s.bands {
			cfg := core.Config{Band: band, Scoring: align.DefaultScoring(), Kind: core.SemiGlobal, Mode: core.ModeStrict}
			chk := core.NewChecker(cfg)
			for lo := 0; lo < len(s.probs); lo += 64 {
				hi := min(lo+64, len(s.probs))
				reqs := make([]core.Request, 0, hi-lo)
				for _, p := range s.probs[lo:hi] {
					reqs = append(reqs, core.Request{Q: p.q, T: p.t, H0: p.h0})
				}
				_, reps := chk.CheckBatch(reqs, nil)
				for i, p := range s.probs[lo:hi] {
					got := reps[i]
					want := sweepVerdict(p.q, p.t, p.h0, cfg)
					if got.Outcome != want.Outcome || got.Pass != want.Pass || got.ThresholdOnlyPass != want.ThresholdOnlyPass {
						t.Fatalf("%s band %d job %d: closed form %v pass=%v thr=%v, sweep %v pass=%v thr=%v",
							s.name, band, lo+i, got.Outcome, got.Pass, got.ThresholdOnlyPass,
							want.Outcome, want.Pass, want.ThresholdOnlyPass)
					}
					if got.EditRan != want.EditRan || got.ScoreEd != want.ScoreEd {
						t.Fatalf("%s band %d job %d: EditRan %v ScoreEd %d, sweep EditRan %v ScorePlusCont %d",
							s.name, band, lo+i, got.EditRan, got.ScoreEd, want.EditRan, want.ScoreEd)
					}
					outcomes[got.Outcome]++
				}
			}
		}
	}
	t.Logf("strict outcomes: %v", outcomes)
	for _, o := range []core.Outcome{core.PassS2, core.FailS1, core.FailEdit, core.FailGlobal} {
		if outcomes[o] == 0 {
			t.Errorf("corpus never reached %v; the comparison does not cover that branch", o)
		}
	}
}
