package btr

// The benchmark harness: one Benchmark per paper artifact (Table 1-2,
// Figures 1-15, the §4.2 coverage stat, and the §5 ablations), plus
// micro-benchmarks of the substrates.
//
// The per-artifact benchmarks share one suite sweep (computed once at a
// reduced scale so `go test -bench=.` stays laptop-friendly) and measure
// the artifact regeneration itself. To regenerate the paper-scale
// artifacts, run `go run ./cmd/brexp -scale 1.0` instead.

import (
	"io"
	"sync"
	"testing"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/trace"
)

const benchScale = 0.005

var (
	benchCtxOnce sync.Once
	benchCtx     *ExperimentContext
)

func benchContext(b *testing.B) *ExperimentContext {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx = NewExperimentContext(SimConfig{Scale: benchScale})
		benchCtx.Suite() // pay the sweep before timing starts
	})
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(ctx, id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkCoverage(b *testing.B) { benchExperiment(b, "S1") }
func BenchmarkFig01(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkFig02(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkFig03(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkFig04(b *testing.B)    { benchExperiment(b, "F4") }
func BenchmarkFig05(b *testing.B)    { benchExperiment(b, "F5") }
func BenchmarkFig06(b *testing.B)    { benchExperiment(b, "F6") }
func BenchmarkFig07(b *testing.B)    { benchExperiment(b, "F7") }
func BenchmarkFig08(b *testing.B)    { benchExperiment(b, "F8") }
func BenchmarkFig09(b *testing.B)    { benchExperiment(b, "F9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "F10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "F11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "F12") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "F13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "F14") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "F15") }

// The ablations replay every suite input through freshly built
// predictors on each iteration — one replay-grid task per (predictor,
// input) pair, spread over the scheduler's workers — so an op costs far
// more than rendering the artifacts above. CI smoke-runs all five at
// -benchtime=1x.
func BenchmarkHybridAblation(b *testing.B)  { benchExperiment(b, "A1") }
func BenchmarkConfidence(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkOptimalHistory(b *testing.B)  { benchExperiment(b, "A3") }
func BenchmarkInterference(b *testing.B)    { benchExperiment(b, "A4") }
func BenchmarkImplicitSchemes(b *testing.B) { benchExperiment(b, "A5") }

// BenchmarkSuiteSweep measures the full two-pass pipeline itself (events
// per op reported via custom metric) on one registry-scale input: the
// profile task records the stream, the attribution grid classifies it,
// and the bank sweep runs as 34 per-slot chains of one-chunk tasks over
// shared decoded columns on GOMAXPROCS workers. Scale 1.0 is the
// registry-default input sizing, so the measurement reflects the
// pipeline as experiments actually run it.
func BenchmarkSuiteSweep(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: 1.0})
}

// BenchmarkSuiteSweepStreaming is the out-of-core pipeline on the same
// input: pass 1 streams the recording to a spill file keeping at most
// ~4 KiB of chunk columns resident (the recording is ~30 KiB, so the
// run genuinely pages), and the sweep's decoded pool is capped below
// the decoded trace. The gap to BenchmarkSuiteSweep is the price of
// bounded memory — spill I/O plus re-decodes — on a trace
// that would comfortably fit; paper-scale traces have no retained
// alternative to compare against.
func BenchmarkSuiteSweepStreaming(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: 1.0, MemBudget: 4 << 10, DecodedBudget: 128 << 10})
}

// BenchmarkSingleInputStreaming is the streaming counterpart of
// BenchmarkSingleInputSaturation: the same ~650k-event input with the
// recording bounded to ~64 KiB resident (vs ~850 KiB encoded) and a
// 1 MiB decoded pool (~8 of its ~40 decoded chunks).
func BenchmarkSingleInputStreaming(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: singleInputScale, MemBudget: 64 << 10, DecodedBudget: 1 << 20})
}

// singleInputScale sizes the saturation benchmarks' one input at ~650k
// events (≈40 recorded chunks): big enough that its sweep is a real
// (34 slot × 40 chunk) grid with a visible tail, small enough for CI.
const singleInputScale = 50.0

// BenchmarkSingleInputSaturation is the chunk-axis headline: ONE large
// input (gcc/genoutput.i at 50× registry scale) on GOMAXPROCS workers.
// Every core gets one-chunk tasks stolen off the 34 slot chains, and no
// task re-decodes the trace.
func BenchmarkSingleInputSaturation(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: singleInputScale})
}

// BenchmarkSingleInputSnapshot is the saturation input with every one
// of the 34 bank slots split into 4 checkpointed chunk ranges, so the
// sweep runs as 136 independent chains (reported as sweepchains/op —
// well past the 34-chain ceiling) on GOMAXPROCS workers. Against
// BenchmarkSingleInputSaturation the delta is the checkpointing
// overhead (the update-only warmup replays all but the last range
// twice, plus snapshot copies); splitting wins wall-clock only when
// cores outnumber the 34 slots, which is why it is off by default.
func BenchmarkSingleInputSnapshot(b *testing.B) {
	const ranges = 4
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	specs := []WorkloadSpec{spec}
	cfg := SimConfig{Scale: singleInputScale, SnapshotRanges: ranges}
	b.ResetTimer()
	var events, snaps int64
	for i := 0; i < b.N; i++ {
		suite := RunSuite(specs, cfg)
		events += suite.TotalEvents()
		snaps += suite.Mem.SnapshotCount
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	// snapshots/op = slots × (ranges-1), so chains/op = snapshots × R/(R-1).
	b.ReportMetric(float64(snaps)/float64(b.N)*ranges/(ranges-1), "sweepchains/op")
}

func benchSingleInput(b *testing.B, cfg SimConfig) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	specs := []WorkloadSpec{spec}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		suite := RunSuite(specs, cfg)
		events += suite.TotalEvents()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// --- substrate micro-benchmarks ---

func benchPredictor(b *testing.B, p Predictor) {
	r := uint64(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		pc := 0x400000 + (r%1024)*4
		taken := r&8 != 0
		if p.Predict(pc) != taken {
			_ = taken
		}
		p.Update(pc, taken)
	}
}

func BenchmarkPAsK8(b *testing.B)     { benchPredictor(b, NewPAs(8)) }
func BenchmarkGAsK10(b *testing.B)    { benchPredictor(b, NewGAs(10)) }
func BenchmarkGShareK12(b *testing.B) { benchPredictor(b, NewGShare(17, 12)) }
func BenchmarkBimodal(b *testing.B)   { benchPredictor(b, NewBimodal(17)) }

func BenchmarkTransitionHybrid(b *testing.B) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	prof := ProfileWorkload(spec, 0.01)
	classes := Classify(prof.Profiles())
	benchPredictor(b, NewTransitionHybrid(classes, prof.Profiles()))
}

func BenchmarkProfiler(b *testing.B) {
	p := NewProfiler()
	r := uint64(999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		p.Branch(0x400000+(r%512)*4, r&4 != 0)
	}
}

// BenchmarkWorkloadCompress runs one generator into a counting sink and
// nothing else, so no simulator change can move it: benchtrend
// normalises every other benchmark to it within each snapshot.
func BenchmarkWorkloadCompress(b *testing.B) {
	spec, err := FindWorkload("compress", "bigtest.in")
	if err != nil {
		b.Fatal(err)
	}
	sink := &trace.CountingSink{}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		events += spec.Run(sink, 0.002)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkTraceEncode(b *testing.B) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	r := uint64(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		w.Branch(0x400000+(r%256)*4, r&2 != 0)
	}
}

func BenchmarkClassOf(b *testing.B) {
	var sink core.Class
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = core.ClassOf(float64(i%1000) / 1000)
	}
	_ = sink
}

func BenchmarkCounterTable(b *testing.B) {
	t := bpred.NewCounterTable(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i) * 2654435761
		if t.Predict(idx) {
			t.Update(idx, false)
		} else {
			t.Update(idx, true)
		}
	}
}
