package sim

import (
	"reflect"
	"strings"
	"testing"

	"btr/internal/rng"
	"btr/internal/workload"
)

// TestReplayMatchesRegenerate pins the record-once/replay-many engine
// on real workloads: for several of them, RunInput's replay of the
// recording must reproduce the regenerating oracle's Exec, Miss,
// HardDistances and class map bit-for-bit.
func TestReplayMatchesRegenerate(t *testing.T) {
	workloads := []struct{ bench, input string }{
		{"compress", "bigtest.in"},
		{"gcc", "genoutput.i"},
		{"vortex", "vortex.lit"},
		{"perl", "primes.pl"},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.bench+"/"+wl.input, func(t *testing.T) {
			t.Parallel()
			spec := testSpec(t, wl.bench, wl.input)
			cfg := Config{Scale: testScale}
			specs := []workload.Spec{spec}
			want := oracleSuite(specs, cfg)
			got := aggregate([]*InputResult{RunInput(spec, cfg)}, specs, nil, cfg)
			assertSuitesEqual(t, "replay-vs-regenerate", want, got)
		})
	}
}

// TestReplayBankWorkerCountIrrelevant pins the sharding determinism
// claim: any number of workers sweeping the bank — fewer than, equal
// to or more than its 34 slots — produces identical miss counts.
func TestReplayBankWorkerCountIrrelevant(t *testing.T) {
	spec := testSpec(t, "m88ksim", "ctl.lit")
	base := RunInput(spec, Config{Scale: testScale, Workers: 1})
	for _, workers := range []int{2, 7, numBankSlots + 3} {
		got := RunInput(spec, Config{Scale: testScale, Workers: workers})
		if got.Miss != base.Miss || got.Exec != base.Exec {
			t.Fatalf("Workers=%d changed results", workers)
		}
	}
}

// TestReplayChunkSizeIrrelevant pins that chunk granularity is invisible
// in results, including chunk sizes that leave a partial final chunk.
func TestReplayChunkSizeIrrelevant(t *testing.T) {
	spec := testSpec(t, "li", "ref.lsp")
	base := RunInput(spec, Config{Scale: testScale})
	for _, chunk := range []int{64, 1000, 1 << 20} {
		got := RunInput(spec, Config{Scale: testScale, ChunkEvents: chunk})
		if got.Miss != base.Miss || got.Exec != base.Exec {
			t.Fatalf("ChunkEvents=%d changed results", chunk)
		}
		if !reflect.DeepEqual(got.HardDistances.Bins, base.HardDistances.Bins) {
			t.Fatalf("ChunkEvents=%d changed hard distances", chunk)
		}
	}
}

// TestRunSuitePanickingWorkloadDropped pins suite resilience: a workload
// whose generator panics is dropped and reported — spec and recovered
// panic value included — and the rest of the suite completes.
func TestRunSuitePanickingWorkloadDropped(t *testing.T) {
	bad := workload.NewSpec("synthetic", "panics", 100, 1,
		func(tr *workload.T, r *rng.Rand, target int64) {
			panic("synthetic workload failure")
		})
	good := testSpec(t, "perl", "primes.pl")
	suite := RunSuite([]workload.Spec{bad, good}, Config{Scale: testScale, Workers: 2})
	if len(suite.Dropped) != 1 {
		t.Fatalf("Dropped = %v, want 1 entry", suite.Dropped)
	}
	d := suite.Dropped[0]
	if d.Spec.Bench != "synthetic" || d.Spec.Input != "panics" {
		t.Fatalf("dropped spec %q, want synthetic/panics", d.Spec.Name())
	}
	if d.Err == nil || !strings.Contains(d.Err.Error(), "synthetic workload failure") {
		t.Fatalf("dropped err %v must carry the panic value", d.Err)
	}
	if !strings.Contains(d.Error(), "synthetic/panics") {
		t.Fatalf("Error() = %q must name the input", d.Error())
	}
	if len(suite.Inputs) != 1 || suite.Inputs[0].Spec.Bench != "perl" {
		t.Fatalf("surviving inputs wrong: %d", len(suite.Inputs))
	}
	if suite.TotalEvents() == 0 {
		t.Fatal("surviving workload's events lost")
	}
}

// TestAggregateSkipsNil pins the nil-guard: a workload that produced no
// result must be dropped and reported, not panic the suite.
func TestAggregateSkipsNil(t *testing.T) {
	spec := testSpec(t, "perl", "primes.pl")
	res := RunInput(spec, Config{Scale: testScale})
	suite := Aggregate([]*InputResult{nil, res, nil}, Config{Scale: testScale})
	if len(suite.Dropped) != 2 {
		t.Fatalf("Dropped = %v, want 2 entries", suite.Dropped)
	}
	for _, d := range suite.Dropped {
		if d.Err == nil || d.Error() == "" {
			t.Fatalf("dropped entry %v must carry a cause", d)
		}
	}
	if len(suite.Inputs) != 1 {
		t.Fatalf("Inputs kept %d entries, want 1", len(suite.Inputs))
	}
	if suite.Exec != res.Exec {
		t.Fatal("surviving input's counts lost")
	}
	if suite.TotalEvents() != res.Events {
		t.Fatal("TotalEvents must ignore dropped inputs")
	}
	if got := Aggregate(nil, Config{}); len(got.Dropped) != 0 || len(got.Inputs) != 0 {
		t.Fatal("aggregating nothing must yield an empty suite")
	}
}
