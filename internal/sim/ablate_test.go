package sim

import (
	"errors"
	"strings"
	"testing"

	"btr/internal/bpred"
	"btr/internal/sched"
	"btr/internal/trace"
	"btr/internal/workload"
)

// gridRows are predictors covering both CountMisses paths: batch
// sweepers (PAs, GAs) and per-event fused steps (everything else).
var gridRows = []struct {
	name  string
	build func(in *InputResult) bpred.Predictor
}{
	{"PAs(k=8)", func(*InputResult) bpred.Predictor { return bpred.NewPAs(8) }},
	{"GAs(k=10)", func(*InputResult) bpred.Predictor { return bpred.NewGAs(10) }},
	{"TransitionHybrid", func(in *InputResult) bpred.Predictor {
		return bpred.NewTransitionHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
	}},
	{"BiMode", func(*InputResult) bpred.Predictor { return bpred.NewBiMode(12, 11, 8) }},
}

func gridRowNames() []string {
	names := make([]string, len(gridRows))
	for r, row := range gridRows {
		names[r] = row.name
	}
	return names
}

// TestReplayGridMatchesSerialReplay: every (row, input) partial the grid
// returns — on a private scheduler, on shared schedulers of several
// widths, and inside a caller's group — equals a serial per-event
// bpred.Run over the same recording, in [row][input] order.
func TestReplayGridMatchesSerialReplay(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	suite := RunSuite(specs, Config{Scale: testScale})
	type partial struct{ misses, events int64 }
	want := make([][]partial, len(gridRows))
	for r, row := range gridRows {
		for _, in := range suite.Inputs {
			res, err := bpred.Run(row.build(in), in.Recorded.Source())
			if err != nil {
				t.Fatal(err)
			}
			want[r] = append(want[r], partial{res.Misses, res.Events})
		}
	}
	task := func(r int, in *InputResult) partial {
		m, e := CountMisses(gridRows[r].build(in), in)
		return partial{m, e}
	}
	check := func(label string, got [][]partial, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("%s: row %s input %s: got %+v want %+v",
						label, gridRows[r].name, suite.Inputs[i].Spec.Name(), got[r][i], want[r][i])
				}
			}
		}
	}
	got, err := ReplayGrid(Config{Workers: 3}, nil, suite.Inputs, gridRowNames(), task)
	check("private scheduler", got, err)
	for _, workers := range []int{1, 4} {
		s := sched.New(workers)
		got, err = ReplayGrid(Config{Sched: s}, nil, suite.Inputs, gridRowNames(), task)
		check("shared scheduler", got, err)
		got, err = ReplayGrid(Config{}, s.NewGroup(), suite.Inputs, gridRowNames(), task)
		check("caller group", got, err)
		s.Close()
	}
}

// TestReplayGridCorruptSpillIsError: a spill file damaged after the
// suite ran makes the replay's page-in fail. The grid turns the panic
// into an error that names the row and the input and still unwraps to
// trace.ErrCorruptSpill — nothing escapes to crash the process.
func TestReplayGridCorruptSpillIsError(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, "li", "ref.lsp")
	cfg := Config{
		Scale:       testScale,
		ChunkEvents: 256,
		MemBudget:   4096,
		Cache:       trace.NewCache(4096, dir, workload.RegistryFingerprint()),
	}
	suite := RunSuite([]workload.Spec{spec}, cfg)
	if len(suite.Dropped) != 0 || !suite.Inputs[0].Recorded.Spilled() {
		t.Fatalf("want one spill-backed input, dropped %v", suite.Dropped)
	}
	corruptFile(t, cfg.Cache.SpillPathFor(cfg.cacheKey(spec)))

	_, err := ReplayGrid(cfg, nil, suite.Inputs, gridRowNames(), func(r int, in *InputResult) int64 {
		m, _ := CountMisses(gridRows[r].build(in), in)
		return m
	})
	if !errors.Is(err, trace.ErrCorruptSpill) {
		t.Fatalf("err = %v, want one wrapping ErrCorruptSpill", err)
	}
	named := false
	for _, row := range gridRowNames() {
		named = named || strings.HasPrefix(err.Error(), row+" on "+spec.Name()+": ")
	}
	if !named {
		t.Fatalf("error %q does not name the row and input", err)
	}
}

// TestReplayGridCanceledGroup: a grid joining a canceled group runs no
// replay and reports ErrCanceled.
func TestReplayGridCanceledGroup(t *testing.T) {
	suite := RunSuite([]workload.Spec{testSpec(t, "perl", "primes.pl")}, Config{Scale: testScale})
	s := sched.New(2)
	defer s.Close()
	g := s.NewGroup()
	g.Cancel()
	ran := false
	_, err := ReplayGrid(Config{}, g, suite.Inputs, []string{"row"}, func(int, *InputResult) int {
		ran = true
		return 0
	})
	if !errors.Is(err, ErrCanceled) || ran {
		t.Fatalf("err = %v, task ran = %v; want ErrCanceled and no replay", err, ran)
	}
}
