package experiments

import (
	"fmt"
	"io"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "A4",
		Paper: "Ablation (§2/§5.1): PHT interference with and without classification-based filtering",
		Run:   runInterferenceAblation,
	})
}

// runInterferenceAblation measures gshare PHT aliasing twice per input:
// once fed the whole branch stream (the monolithic predictor's life), and
// once fed only the branches the transition classification would actually
// leave in the shared table (everything except static/bias-table traffic).
// The filtered configuration shows both less aliasing and a lower miss
// rate on the very same hard branches — the §5.1 resource argument.
func runInterferenceAblation(c *Context, w io.Writer) error {
	type accum struct {
		alias      bpred.AliasStats
		hardMisses int64
		hardEvents int64
	}
	// Two grid rows, one per configuration. Both score the SAME
	// population — the hard branches that remain in the shared table —
	// so the miss-rate column isolates what the easy branches' presence
	// costs them.
	cases := []string{"all branches in PHT", "easy branches filtered out (§5.1)"}
	parts, err := replayGrid(c, cases, func(row int, in *sim.InputResult) accum {
		filterEasy := row == 1
		// Which branches stay in the shared table under classification?
		stays := make(map[uint64]bool, len(in.Classes))
		for pc, jc := range in.Classes {
			adv := core.Advise(jc)
			stays[pc] = adv == core.AdviseLongHistory || adv == core.AdviseNonPredictive
		}
		var acc accum
		g := bpred.NewGShare(bpred.GAsPHTBits, 12)
		tr := bpred.NewAliasTracker(bpred.GAsPHTBits)
		in.EachChunk(c.Cfg.Scale, func(pcs, dirs []uint64, n int) {
			for i := 0; i < n; i++ {
				pc, taken := pcs[i], dirs[i>>6]&(1<<(uint(i)&63)) != 0
				stay := stays[pc]
				if filterEasy && !stay {
					continue
				}
				tr.Observe(g.Index(pc), pc, taken)
				missed := g.PredictUpdate(pc, taken) != taken
				if stay {
					acc.hardEvents++
					if missed {
						acc.hardMisses++
					}
				}
			}
		})
		acc.alias = tr.Stats()
		return acc
	})
	if err != nil {
		return err
	}
	var sums [2]accum
	for row := range sums {
		sum := &sums[row]
		for _, p := range parts[row] {
			sum.alias.Updates += p.alias.Updates
			sum.alias.Aliased += p.alias.Aliased
			sum.alias.Destructive += p.alias.Destructive
			sum.hardMisses += p.hardMisses
			sum.hardEvents += p.hardEvents
		}
	}
	full, filtered := sums[0], sums[1]

	tbl := report.Table{
		Title:   "A4 — gshare(17,k=12) PHT interference, all branches vs classification-filtered",
		Headers: []string{"configuration", "PHT updates", "aliased", "destructive", "hard-branch miss rate"},
	}
	tbl.AddRow(cases[0],
		fmt.Sprintf("%d", full.alias.Updates),
		report.Percent(full.alias.AliasedRate()),
		report.Percent(full.alias.DestructiveRate()),
		report.Rate(stats.Ratio(float64(full.hardMisses), float64(full.hardEvents))))
	tbl.AddRow(cases[1],
		fmt.Sprintf("%d", filtered.alias.Updates),
		report.Percent(filtered.alias.AliasedRate()),
		report.Percent(filtered.alias.DestructiveRate()),
		report.Rate(stats.Ratio(float64(filtered.hardMisses), float64(filtered.hardEvents))))
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\nboth rows score the same hard-branch population (%d dynamic branches);\n"+
			"the difference is what the easy branches' table pressure costs them.\n",
		full.hardEvents)
	return err
}
