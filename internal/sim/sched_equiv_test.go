package sim

import (
	"testing"

	"btr/internal/workload"
)

// TestScheduledSingleInputManyWorkers pins the fan-out balance claim:
// a one-input suite still uses every worker via sweep batches, and the
// result is identical to RunInput.
func TestScheduledSingleInputManyWorkers(t *testing.T) {
	spec := testSpec(t, "m88ksim", "ctl.lit")
	direct := RunInput(spec, Config{Scale: testScale})
	suite := RunSuite([]workload.Spec{spec}, Config{Scale: testScale, Workers: 8})
	if len(suite.Inputs) != 1 {
		t.Fatalf("inputs %d", len(suite.Inputs))
	}
	got := suite.Inputs[0]
	if got.Exec != direct.Exec || got.Miss != direct.Miss {
		t.Fatal("single-input scheduled run diverged from RunInput")
	}
}

// TestScheduledBatchCountIrrelevant pins that how the scheduled sweep
// batches each slot's chunk axis — one chain, or several checkpointed
// ranges each restored from a warmup snapshot — is invisible in
// results.
func TestScheduledBatchCountIrrelevant(t *testing.T) {
	spec := testSpec(t, "ijpeg", "vigo.ppm")
	specs := []workload.Spec{spec}
	base := RunSuite(specs, Config{Scale: testScale, ChunkEvents: 256})
	for _, ranges := range []int{2, 5, 1 << 30} {
		got := RunSuite(specs, Config{Scale: testScale, ChunkEvents: 256, SnapshotRanges: ranges})
		if got.Exec != base.Exec || got.Miss != base.Miss {
			t.Fatalf("SnapshotRanges=%d changed scheduled results", ranges)
		}
	}
}
