package experiments

import (
	"fmt"
	"io"

	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "A1",
		Paper: "Ablation (§5.4): classification-guided hybrids vs monolithic predictors at ~32KB",
		Run:   runHybridAblation,
	})
	register(Experiment{
		ID:    "A2",
		Paper: "Ablation (§5.3): class-derived confidence vs Jacobsen dynamic estimators",
		Run:   runConfidenceAblation,
	})
	register(Experiment{
		ID:    "A3",
		Paper: "Ablation (§5.1): optimal history length per class and per joint cell",
		Run:   runOptimalHistoryAblation,
	})
	register(Experiment{
		ID:    "A5",
		Paper: "Ablation (§2): implicit classification (Bi-Mode/YAGS/Filter/gskew) vs explicit taken/transition classification",
		Run:   runImplicitClassificationAblation,
	})
}

// runImplicitClassificationAblation compares the interference-reducing
// predictors the paper surveys in §2 — each an *implicit* classification
// scheme — against the explicit profile-guided hybrids, at comparable
// budgets. The paper's argument: these predictors all smuggle in a bias
// or transition signal; classifying openly does at least as well and
// yields reusable information (advice, confidence, history lengths).
func runImplicitClassificationAblation(c *Context, w io.Writer) error {
	rows := []predictorRow{
		{"TransitionHybrid (explicit)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTransitionHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
		}},
		{"BiMode(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewBiMode(16, 15, 12)
		}},
		{"YAGS(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewYAGS(16, 14, 8, 12)
		}},
		{"Filter(32)+gshare(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewFilter(14, 32, bpred.NewGShare(16, 12))
		}},
		{"gskew(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGSkew(16, 12)
		}},
		{"gshare(17,k=12) (no scheme)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGShare(bpred.GAsPHTBits, 12)
		}},
	}
	tbl := report.Table{
		Title:   "A5 — Implicit vs explicit classification (suite miss rate)",
		Headers: []string{"predictor", "miss rate", "state bits"},
	}
	if err := addPredictorRows(c, &tbl, rows); err != nil {
		return err
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nBi-Mode/YAGS/Filter/gskew reduce interference via implicit bias or")
	if err == nil {
		_, err = fmt.Fprintln(w, "transition signals (§2); the explicit hybrid uses the same information openly.")
	}
	return err
}

// predictorRow is one predictor an A1/A5 table compares, built per
// input from its profile and classes.
type predictorRow struct {
	name  string
	build func(in *sim.InputResult) bpred.Predictor
}

// missPartial is one (predictor, input) cell of the A1/A5 grid.
type missPartial struct {
	misses, events, sizeBits int64
}

// addPredictorRows replays every row's predictor over every suite input
// on the replay grid and adds one table row per predictor: its suite
// miss rate (misses and events summed in input order) and the budget of
// the last input's instance.
func addPredictorRows(c *Context, tbl *report.Table, rows []predictorRow) error {
	names := make([]string, len(rows))
	for r, row := range rows {
		names[r] = row.name
	}
	parts, err := replayGrid(c, names, func(r int, in *sim.InputResult) missPartial {
		p := rows[r].build(in)
		misses, events := sim.CountMisses(p, in)
		return missPartial{misses: misses, events: events, sizeBits: p.SizeBits()}
	})
	if err != nil {
		return err
	}
	for r, row := range rows {
		var sum missPartial
		for _, p := range parts[r] {
			sum.misses += p.misses
			sum.events += p.events
			sum.sizeBits = p.sizeBits
		}
		tbl.AddRow(row.name, report.Rate(stats.Ratio(float64(sum.misses), float64(sum.events))), fmt.Sprintf("%d", sum.sizeBits))
	}
	return nil
}

func runHybridAblation(c *Context, w io.Writer) error {
	rows := []predictorRow{
		{"TransitionHybrid (§5.4)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTransitionHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
		}},
		{"TakenHybrid (Chang)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTakenHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
		}},
		{"DynamicClassHybrid (§6)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{})
		}},
		{"gshare(17,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGShare(bpred.GAsPHTBits, 12)
		}},
		{"PAs(k=8)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewPAs(8)
		}},
		{"GAs(k=10)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGAs(10)
		}},
		{"Bimodal(17)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewBimodal(bpred.GAsPHTBits)
		}},
		{"Agree(17,k=10)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewAgree(bpred.GAsPHTBits, 10, 14)
		}},
		{"Tournament(PAs8,gshare10)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTournament("Tournament(PAs8,gshare10)",
				bpred.NewPAs(8), bpred.NewGShare(16, 10), 12)
		}},
		{"StaticBias(profile)", func(in *sim.InputResult) bpred.Predictor {
			bias := make(map[uint64]bool, len(in.Profiles))
			for pc, p := range in.Profiles {
				bias[pc] = p.TakenRate() >= 0.5
			}
			return bpred.NewStaticBias(bias)
		}},
		{"LastTime(17)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewLastTime(bpred.GAsPHTBits)
		}},
	}
	tbl := report.Table{
		Title:   "A1 — Classification-guided hybrids vs monolithic predictors (suite miss rate)",
		Headers: []string{"predictor", "miss rate", "state bits"},
	}
	if err := addPredictorRows(c, &tbl, rows); err != nil {
		return err
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nexpected shape: TransitionHybrid <= TakenHybrid <= monolithic at similar budget;")
	if err == nil {
		_, err = fmt.Fprintln(w, "StaticBias and LastTime bracket the easy/hard split the classification exploits.")
	}
	return err
}

func runConfidenceAblation(c *Context, w io.Writer) error {
	suite := c.Suite()
	// Expected per-class miss rates for the static estimator come from
	// the suite's own PAs sweep at the joint-optimal history (Fig 13).
	pasJoint, _ := suite.OptimalJoint(sim.KindPAs)

	type entry struct {
		name string
		make func(in *sim.InputResult) conf.Estimator
	}
	entries := []entry{
		{name: "class-static(0.08)", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewClassStatic(in.Classes, pasJoint, 0.08)
		}},
		{name: "jacobsen-1level", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewOneLevel(12, 15, 8)
		}},
		{name: "jacobsen-2level", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewTwoLevel(12, 10, 15, 8)
		}},
	}
	// One grid row: every estimator watches the same PAs(k=8) stream, so
	// each input's task steps the predictor once per event and returns
	// one quadrant partial per estimator.
	parts, err := replayGrid(c, []string{"PAs(k=8) estimators"}, func(_ int, in *sim.InputResult) []conf.Quadrants {
		predictor := bpred.NewPAs(8)
		ests := make([]conf.Estimator, len(entries))
		for i, e := range entries {
			ests[i] = e.make(in)
		}
		quads := make([]conf.Quadrants, len(entries))
		in.EachChunk(func(pcs, dirs []uint64, n int) {
			for j := 0; j < n; j++ {
				pc, taken := pcs[j], dirs[j>>6]&(1<<(uint(j)&63)) != 0
				correct := predictor.PredictUpdate(pc, taken) == taken
				for i, est := range ests {
					quads[i].Observe(est.HighConfidence(pc), correct)
					est.Update(pc, correct)
				}
			}
		})
		return quads
	})
	if err != nil {
		return err
	}
	suiteQuads := make([]conf.Quadrants, len(entries))
	for _, quads := range parts[0] {
		for i := range suiteQuads {
			suiteQuads[i].Add(quads[i])
		}
	}
	tbl := report.Table{
		Title:   "A2 — Confidence estimation over PAs(k=8) (suite-wide)",
		Headers: []string{"estimator", "SENS (misses caught)", "PVN (low-conf hit rate)", "SPEC"},
	}
	for i, e := range entries {
		q := &suiteQuads[i]
		tbl.AddRow(e.name,
			report.Percent(q.Sensitivity()),
			report.Percent(q.PredictiveValueNegative()),
			report.Percent(q.Specificity()))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nthe class-static estimator needs no accuracy measurement hardware at all (§5.3).")
	return err
}

func runOptimalHistoryAblation(c *Context, w io.Writer) error {
	suite := c.Suite()
	tbl := report.Table{
		Title:   "A3 — Optimal history length per class (the policy §5.1 implies)",
		Headers: []string{"class", "pas k* (taken)", "gas k* (taken)", "pas k* (trans)", "gas k* (trans)"},
	}
	pasT, _ := suite.OptimalHistoryTaken(sim.KindPAs)
	gasT, _ := suite.OptimalHistoryTaken(sim.KindGAs)
	pasR, _ := suite.OptimalHistoryTransition(sim.KindPAs)
	gasR, _ := suite.OptimalHistoryTransition(sim.KindGAs)
	for cl := 0; cl < core.NumClasses; cl++ {
		tbl.AddRow(fmt.Sprintf("%d", cl),
			fmt.Sprintf("%d", pasT[cl]), fmt.Sprintf("%d", gasT[cl]),
			fmt.Sprintf("%d", pasR[cl]), fmt.Sprintf("%d", gasR[cl]))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	// Advice distribution: how many dynamic branches land in each §5
	// resource class.
	var adviceWeight [4]float64
	var total float64
	for _, in := range suite.Inputs {
		for pc, jc := range in.Classes {
			p := in.Profiles[pc]
			if p == nil {
				continue
			}
			adviceWeight[core.Advise(jc)] += float64(p.Execs)
			total += float64(p.Execs)
		}
	}
	adv := report.Table{
		Title:   "Dynamic branch share per §5 resource recommendation",
		Headers: []string{"advice", "share"},
	}
	for a := core.AdviseStatic; a <= core.AdviseNonPredictive; a++ {
		adv.AddRow(a.String(), report.Percent(stats.Ratio(adviceWeight[a], total)))
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return adv.Render(w)
}
