package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"btr/internal/bpred"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// oracleInput is the reference pipeline the engine is checked against:
// pass 1 profiles a generator run, pass 2 re-runs the generator and
// drives the whole PAs/GAs bank serially from one sink, one Predict and
// Update per slot per event, attributing through the class map. It
// shares nothing with the production engine beyond the profiler and the
// predictors: no recording, no chunks, no scheduler, no attribution
// column.
func oracleInput(spec workload.Spec, cfg Config) *InputResult {
	profiler, classes := ProfileInput(spec, cfg.Scale)

	res := &InputResult{
		Spec:          spec,
		Events:        profiler.Events(),
		Sites:         profiler.Sites(),
		Profiles:      profiler.Profiles(),
		Classes:       classes,
		HardDistances: stats.NewHistogram(cfg.window() + 1),
	}

	var pas [NumHistories]*bpred.PAs
	var gas [NumHistories]*bpred.GAs
	for k := 0; k < NumHistories; k++ {
		pas[k] = bpred.NewPAs(k)
		gas[k] = bpred.NewGAs(k)
	}

	var pos, lastHard int64
	sawHard := false
	sink := trace.SinkFunc(func(pc uint64, taken bool) {
		jc := classes[pc]
		t, tr := jc.Taken, jc.Transition
		res.Exec[t][tr]++
		for k := 0; k < NumHistories; k++ {
			if pas[k].Predict(pc) != taken {
				res.Miss[KindPAs][k][t][tr]++
			}
			pas[k].Update(pc, taken)
			if gas[k].Predict(pc) != taken {
				res.Miss[KindGAs][k][t][tr]++
			}
			gas[k].Update(pc, taken)
		}
		pos++
		if jc.Hard() {
			if sawHard {
				res.HardDistances.Add(int(pos - lastHard))
			}
			sawHard = true
			lastHard = pos
		}
	})
	spec.Run(sink, cfg.Scale)
	return res
}

// oracleSuite aggregates oracleInput over specs.
func oracleSuite(specs []workload.Spec, cfg Config) *SuiteResult {
	results := make([]*InputResult, len(specs))
	for i, spec := range specs {
		results[i] = oracleInput(spec, cfg)
	}
	return aggregate(results, specs, nil, cfg)
}

func assertSuitesEqual(t *testing.T, label string, want, got *SuiteResult) {
	t.Helper()
	if len(got.Dropped) != 0 {
		t.Fatalf("%s: dropped inputs %v", label, got.Dropped)
	}
	if len(want.Inputs) != len(got.Inputs) {
		t.Fatalf("%s: input counts %d vs %d", label, len(want.Inputs), len(got.Inputs))
	}
	for i := range want.Inputs {
		w, g := want.Inputs[i], got.Inputs[i]
		if w.Spec.Name() != g.Spec.Name() {
			t.Fatalf("%s: input order diverged: %s vs %s", label, w.Spec.Name(), g.Spec.Name())
		}
		if w.Events != g.Events || w.Sites != g.Sites {
			t.Fatalf("%s/%s: events/sites %d/%d vs %d/%d",
				label, w.Spec.Name(), w.Events, w.Sites, g.Events, g.Sites)
		}
		if w.Exec != g.Exec {
			t.Fatalf("%s/%s: Exec attribution diverged", label, w.Spec.Name())
		}
		if w.Miss != g.Miss {
			for kind := Kind(0); kind < NumKinds; kind++ {
				for k := 0; k < NumHistories; k++ {
					if w.Miss[kind][k] != g.Miss[kind][k] {
						t.Fatalf("%s/%s: Miss diverged at %v k=%d: want total %d, got %d",
							label, w.Spec.Name(), kind, k, w.Miss[kind][k].Total(), g.Miss[kind][k].Total())
					}
				}
			}
		}
		if !reflect.DeepEqual(w.HardDistances.Bins, g.HardDistances.Bins) {
			t.Fatalf("%s/%s: hard distances diverged: %v vs %v",
				label, w.Spec.Name(), w.HardDistances.Bins, g.HardDistances.Bins)
		}
		if !reflect.DeepEqual(w.Classes, g.Classes) {
			t.Fatalf("%s/%s: class maps diverged", label, w.Spec.Name())
		}
	}
	if want.Exec != got.Exec || want.Miss != got.Miss {
		t.Fatalf("%s: aggregate counts diverged", label)
	}
	if !reflect.DeepEqual(want.Distribution, got.Distribution) {
		t.Fatalf("%s: distributions diverged", label)
	}
}

// atTestScale rescales a custom spec written for Scale 1 so it emits
// the same number of events at testScale, letting it share a suite
// with registry specs.
func atTestScale(spec workload.Spec) workload.Spec {
	spec.Target = int64(float64(spec.Target) / testScale)
	return spec
}

// TestSuiteMatchesOracle is the engine's property test. Seeded random
// draws pick a spec subset (registry workloads plus the crafted
// alternator and hard-pair streams), a chunk size, a worker count, a
// range count per bank slot and a memory shape — fully retained, or
// spilled past a small resident budget with a bounded decoded pool —
// and RunSuite must reproduce the oracle
// bit for bit on every draw. Across draws that pins chunk-size, worker
// and range-count invariance; within a draw, split legs must have
// checkpointed every range boundary and spilled legs must have paged.
func TestSuiteMatchesOracle(t *testing.T) {
	pool := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "li", "ref.lsp"),
		testSpec(t, "perl", "primes.pl"),
		atTestScale(alternatorSpec()),
		atTestScale(hardPairSpec()),
	}
	base := Config{Scale: testScale}
	oracle := make(map[string]*InputResult)
	for _, spec := range pool {
		oracle[spec.Name()] = oracleInput(spec, base)
	}

	const allRanges = 1 << 30
	chunkSizes := []int{64, 256, 0}
	workerCounts := []int{1, 2, 4}
	rangeCounts := []int{0, 2, 5, allRanges}
	// The budgets are sized for testScale recordings (a few KiB to tens
	// of KiB), so the spilled shapes genuinely page and evict.
	shapes := []struct {
		name    string
		mem     int64 // Config.MemBudget
		decoded int64 // Config.DecodedBudget
	}{
		{"retained", 0, 0},
		{"spill+pool", 4096, 6000},
	}

	const draws = 24
	rng := rand.New(rand.NewPCG(0xb7c0ffee, 13))
	seen := make(map[string]bool)
	for d := 0; d < draws; d++ {
		var specs []workload.Spec
		for len(specs) == 0 {
			for _, spec := range pool {
				if rng.IntN(3) == 0 {
					specs = append(specs, spec)
				}
			}
		}
		chunk := chunkSizes[rng.IntN(len(chunkSizes))]
		workers := workerCounts[rng.IntN(len(workerCounts))]
		ranges := rangeCounts[rng.IntN(len(rangeCounts))]
		shape := shapes[rng.IntN(len(shapes))]
		seen[fmt.Sprint("chunk", chunk)] = true
		seen[fmt.Sprint("workers", workers)] = true
		seen[fmt.Sprint("ranges", ranges)] = true
		seen[shape.name] = true

		cfg := base
		cfg.ChunkEvents = chunk
		cfg.Workers = workers
		cfg.SnapshotRanges = ranges
		cfg.MemBudget = shape.mem
		cfg.DecodedBudget = shape.decoded
		var names []string
		want := make([]*InputResult, len(specs))
		for i, spec := range specs {
			names = append(names, spec.Name())
			want[i] = oracle[spec.Name()]
		}
		label := fmt.Sprintf("draw %d %v chunk=%d workers=%d ranges=%d %s", d, names, chunk, workers, ranges, shape.name)

		got := RunSuite(specs, cfg)
		assertSuitesEqual(t, label, aggregate(want, specs, nil, cfg), got)
		for _, r := range got.Inputs {
			split := len(snapshotBounds(r.Recorded.Chunks(), ranges)) - 1
			m := r.Mem
			if wantSnaps := int64(numBankSlots * (split - 1)); m.SnapshotCount != wantSnaps {
				t.Fatalf("%s/%s: %d snapshots over %d ranges, want %d",
					label, r.Spec.Name(), m.SnapshotCount, split, wantSnaps)
			}
			if split > 1 && (m.SnapshotBytes == 0 || m.SnapshotPeak == 0 || m.SnapshotPeak > m.SnapshotBytes) {
				t.Fatalf("%s/%s: snapshot accounting %+v", label, r.Spec.Name(), m)
			}
			// Chunks outside the resident prefix can only come from the
			// spill file, and a multi-chunk recording well past the budget
			// (the leading chunk always stays resident) must have left
			// some there.
			if m.ResidentPeak < m.RecordedBytes && m.PageIns == 0 {
				t.Fatalf("%s/%s: spilled chunks swept without a page-in (mem %+v)", label, r.Spec.Name(), m)
			}
			if shape.mem > 0 && r.Recorded.Chunks() > 1 && m.RecordedBytes > 2*shape.mem && m.ResidentPeak >= m.RecordedBytes {
				t.Fatalf("%s/%s: budgeted run kept everything resident (mem %+v)", label, r.Spec.Name(), m)
			}
		}
	}
	for _, key := range []string{"chunk64", "chunk256", "chunk0", "workers1", "workers2", "workers4",
		"ranges0", "ranges2", "ranges5", fmt.Sprint("ranges", allRanges), "retained", "spill+pool"} {
		if !seen[key] {
			t.Errorf("no draw covered %s; reseed or add draws", key)
		}
	}
}
