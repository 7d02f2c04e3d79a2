package experiments

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"btr/internal/sched"
	"btr/internal/sim"
)

// goldenScale is the suite scale the ablation goldens were captured at.
const goldenScale = 0.05

// TestAblationGoldens pins A1–A5 byte for byte. The goldens in testdata
// were rendered at scale 0.05 over the full Table 1 suite by the serial
// per-input replay the (row × input) grid replaced; the grid must
// reproduce them on schedulers of any width, with its tasks stealing in
// whatever order the workers happen to take them.
func TestAblationGoldens(t *testing.T) {
	base := NewContextShared(sim.Config{Scale: goldenScale}, NewShared(0, ""))
	suite := base.Suite()
	if len(suite.Dropped) > 0 {
		t.Fatalf("suite dropped inputs: %v", suite.Dropped)
	}
	for _, workers := range []int{1, 2, 4} {
		s := sched.New(workers)
		// Every width reuses the one computed suite; the grid runs in a
		// group on the width's scheduler, as after SuiteGroup.
		ctx := &Context{Cfg: base.Cfg, Specs: base.Specs}
		ctx.Cfg.Sched = s
		ctx.once.Do(func() { ctx.suite, ctx.group = suite, s.NewGroup() })
		for _, id := range []string{"A1", "A2", "A3", "A4", "A5"} {
			want, err := os.ReadFile(filepath.Join("testdata", id+".scale0.05.golden"))
			if err != nil {
				t.Fatal(err)
			}
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := e.Run(ctx, &got); err != nil {
				t.Fatalf("%d workers: %s: %v", workers, id, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%d workers: %s differs from its golden:\n--- got\n%s--- want\n%s", workers, id, got.Bytes(), want)
			}
		}
		s.Close()
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
