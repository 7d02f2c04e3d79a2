package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"btr/internal/sched"
	"btr/internal/sim"
)

// goldenScale is the suite scale the artifact goldens were captured at.
const goldenScale = 0.05

// TestAblationGoldens pins every artifact — T1, T2, S1, X1, F1–F15 and
// the A1–A5 ablations — byte for byte. The goldens in testdata are
// brexp's output at scale 0.05 over the full Table 1 suite. Each
// configuration runs the whole pipeline from scratch (fresh caches, its
// own scheduler) across worker counts, one or three checkpointed ranges
// per bank slot, and fully retained recordings or a 64 KiB resident
// budget with a 128 KiB decoded pool; every one must reproduce every
// golden exactly.
//
// The replay ablations A1, A2, A4 and A5 replay recorded chunks through
// EachChunk and never read SnapshotRanges or the decoded pool, so a
// ranges=3 leg would re-test identical inputs; they render only in the
// ranges=0 legs. A3 and the 19 sweep artifacts render in every leg.
func TestAblationGoldens(t *testing.T) {
	want := make(map[string][]byte)
	for _, e := range All() {
		data, err := os.ReadFile(filepath.Join("testdata", e.ID+".scale0.05.golden"))
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = data
	}
	if len(want) != 24 {
		t.Fatalf("%d artifacts registered, want 24", len(want))
	}
	shapes := []struct {
		name         string
		mem, decoded int64
	}{
		{"retained", 0, 0},
		{"budgeted", 64 << 10, 128 << 10},
	}
	replayOnly := map[string]bool{"A1": true, "A2": true, "A4": true, "A5": true}
	for _, workers := range []int{1, 2, 4} {
		for _, ranges := range []int{0, 3} {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("workers=%d/ranges=%d/%s", workers, ranges, shape.name), func(t *testing.T) {
					// Configurations share nothing (own scheduler, own caches),
					// so they run in parallel to keep the race job's time down.
					t.Parallel()
					s := sched.New(workers)
					defer s.Close()
					cfg := sim.Config{
						Scale:          goldenScale,
						Sched:          s,
						SnapshotRanges: ranges,
						MemBudget:      shape.mem,
						DecodedBudget:  shape.decoded,
					}
					// A nil bundle gives the budgeted shape private caches
					// bounded to its budget; the retained shape gets a fresh one.
					var sh *Shared
					if shape.mem == 0 {
						sh = NewShared(0, "")
					}
					ctx := NewContextShared(cfg, sh)
					if suite := ctx.SuiteGroup(s.NewGroup()); len(suite.Dropped) > 0 {
						t.Fatalf("suite dropped inputs: %v", suite.Dropped)
					}
					for _, e := range All() {
						if ranges > 0 && replayOnly[e.ID] {
							continue
						}
						var got bytes.Buffer
						if err := e.Run(ctx, &got); err != nil {
							t.Fatalf("%s: %v", e.ID, err)
						}
						if !bytes.Equal(got.Bytes(), want[e.ID]) {
							t.Errorf("%s differs from its golden:\n--- got\n%s--- want\n%s", e.ID, got.Bytes(), want[e.ID])
						}
					}
				})
			}
		}
	}
}

// TestAblationsRunInSuiteGroup: the replay grids join the group the
// suite ran as, so canceling that group (a brserve disconnect or
// deadline) stops every ablation that replays the trace.
func TestAblationsRunInSuiteGroup(t *testing.T) {
	s := sched.New(2)
	defer s.Close()
	ctx := smallContext()
	ctx.Cfg.Sched = s
	g := s.NewGroup()
	ctx.SuiteGroup(g)
	g.Cancel()
	for _, id := range []string{"A1", "A2", "A4", "A5"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(ctx, io.Discard); !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("%s on a canceled group: err = %v, want sim.ErrCanceled", id, err)
		}
	}
}
