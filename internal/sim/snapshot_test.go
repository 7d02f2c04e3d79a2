package sim

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"btr/internal/bpred"
	"btr/internal/trace"
	"btr/internal/workload"
)

// TestSnapshotTaskFanOut pins checkpointing's reason to exist: with R
// ranges, every bank slot checkpoints R-1 boundary states, so the grid
// ran numBankSlots × R independent sweep chains — well past the 34-chain
// ceiling.
func TestSnapshotTaskFanOut(t *testing.T) {
	const ranges = 5
	spec := testSpec(t, "gcc", "genoutput.i")
	cfg := Config{Scale: testScale, ChunkEvents: 256, SnapshotRanges: ranges, Workers: 4}
	suite := RunSuite([]workload.Spec{spec}, cfg)
	if len(suite.Inputs) != 1 {
		t.Fatalf("inputs %d (dropped: %v)", len(suite.Inputs), suite.Dropped)
	}
	got := suite.Inputs[0].Mem.SnapshotCount
	if want := int64(numBankSlots * (ranges - 1)); got != want {
		t.Fatalf("snapshot count %d, want %d (numBankSlots × (ranges-1))", got, want)
	}
}

// TestSnapshotRangesClampToChunks pins the degenerate geometries: more
// ranges than chunks clamps cleanly, and 0/1 ranges sweep one chain per
// slot (no snapshots at all).
func TestSnapshotRangesClampToChunks(t *testing.T) {
	spec := testSpec(t, "perl", "primes.pl")
	base := Config{Scale: testScale, ChunkEvents: 256}
	single := RunSuite([]workload.Spec{spec}, base)
	for _, ranges := range []int{0, 1} {
		cfg := base
		cfg.SnapshotRanges = ranges
		got := RunSuite([]workload.Spec{spec}, cfg)
		assertSuitesEqual(t, fmt.Sprintf("ranges=%d", ranges), single, got)
		if got.Mem.SnapshotCount != 0 {
			t.Fatalf("ranges=%d took %d snapshots, want none", ranges, got.Mem.SnapshotCount)
		}
	}
}

func TestSnapshotBounds(t *testing.T) {
	cases := []struct {
		nchunks, ranges int
		want            []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 3, 6, 10}},
		{3, 10, []int{0, 1, 2, 3}}, // clamped to nchunks
		{7, 1, []int{0, 7}},
		{5, 0, []int{0, 5}}, // degenerate: single range
	}
	for _, c := range cases {
		got := snapshotBounds(c.nchunks, c.ranges)
		if len(got) != len(c.want) {
			t.Fatalf("bounds(%d,%d) = %v, want %v", c.nchunks, c.ranges, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("bounds(%d,%d) = %v, want %v", c.nchunks, c.ranges, got, c.want)
			}
		}
	}
}

// TestRunPredictorSnapshotMatchesRun pins the single-predictor runner
// brsim uses: for PAs and GAs over a recorded trace, checkpointed range
// parallelism at any geometry must reproduce the sequential bpred.Run
// miss count exactly.
func TestRunPredictorSnapshotMatchesRun(t *testing.T) {
	spec := testSpec(t, "li", "ref.lsp")
	res := passOne(spec, Config{Scale: testScale, ChunkEvents: 256})
	h := res.Recorded

	builders := map[string]func() SnapshotPredictor{
		"PAs(6)":  func() SnapshotPredictor { return bpred.NewPAs(6) },
		"GAs(10)": func() SnapshotPredictor { return bpred.NewGAs(10) },
	}
	for name, mk := range builders {
		want, err := bpred.Run(mk(), h.Source())
		if err != nil {
			t.Fatalf("%s: sequential run: %v", name, err)
		}
		for _, ranges := range []int{1, 3, 7, 1 << 30} {
			for _, workers := range []int{1, 4} {
				got, stats, err := RunPredictorSnapshot(h, mk, ranges, workers)
				if err != nil {
					t.Fatalf("%s ranges=%d workers=%d: %v", name, ranges, workers, err)
				}
				if got.Misses != want.Misses || got.Events != want.Events {
					t.Fatalf("%s ranges=%d workers=%d: misses/events %d/%d, want %d/%d",
						name, ranges, workers, got.Misses, got.Events, want.Misses, want.Events)
				}
				if int64(stats.Ranges) != stats.Snapshots {
					t.Fatalf("%s ranges=%d: %d snapshots for %d ranges (initial state included)",
						name, ranges, stats.Snapshots, stats.Ranges)
				}
			}
		}
	}
}

// TestRunPredictorSnapshotCorruptSpill: a damaged spill chunk surfaces
// as an error that still unwraps to trace.ErrCorruptSpill — whether the
// sequential warmup or a range worker pages it in — and never as a
// panic, so brsim can quarantine the file and re-record.
func TestRunPredictorSnapshotCorruptSpill(t *testing.T) {
	const ranges = 4
	for _, tc := range []struct {
		name   string
		num    int64 // damage offset: num/den of the way into the file
		den    int64
		warmup bool // whether that offset lies in a chunk the warmup pages
	}{
		{"warmup", 2, 5, true},
		{"last-range", 9, 10, false},
	} {
		path := filepath.Join(t.TempDir(), "li.btr")
		sr, err := trace.NewStreamRecorder(path, 256, 4096)
		if err != nil {
			t.Fatal(err)
		}
		testSpec(t, "li", "ref.lsp").Run(sr, testScale)
		h, err := sr.Seal()
		if err != nil {
			t.Fatal(err)
		}
		corruptFileAt(t, path, tc.num, tc.den)

		mk := func() SnapshotPredictor { return bpred.NewPAs(6) }
		_, _, err = RunPredictorSnapshot(h, mk, ranges, 2)
		if !errors.Is(err, trace.ErrCorruptSpill) {
			t.Fatalf("%s: err = %v, want one wrapping ErrCorruptSpill", tc.name, err)
		}
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v carries no chunk", tc.name, err)
		}
		bounds := snapshotBounds(h.Chunks(), ranges)
		if inWarmup := ce.Chunk < bounds[ranges-1]; inWarmup != tc.warmup {
			t.Fatalf("%s: damage landed in chunk %d (ranges %v)", tc.name, ce.Chunk, bounds)
		}
	}
}
