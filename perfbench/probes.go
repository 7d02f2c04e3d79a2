package main

import (
	"fmt"
	"path/filepath"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// probeLayers times each layer's public entry point in isolation over
// the given inputs, one span per layer call, so the traced run reports a
// per-event cost for layers the end-to-end passes only reach from inside
// the program. With memBudget > 0 the recording is encoded to a spill
// file and decoded back from it, as the out-of-core workload does;
// otherwise both stay in memory.
func probeLayers(o *options, tr *tracer, specs []workload.Spec, scale float64, memBudget int64) error {
	root := tr.start("probes", 0, "probes")
	defer tr.end(root, 0)
	for i, spec := range specs {
		if err := probeOne(o, tr, root, spec, scale, memBudget, i); err != nil {
			return fmt.Errorf("probe %s: %w", spec.Name(), err)
		}
	}
	return nil
}

// probeSuite times one suite run on a fresh scheduler over fresh caches.
func probeSuite(tr *tracer, specs []workload.Spec, scale float64) {
	pool := sched.New(workers())
	defer pool.Close()
	sh := experiments.NewShared(0, "")
	cfg := sim.Config{Scale: scale, Sched: pool, Cache: sh.Traces, Profiles: sh.Profiles}
	s := tr.start("sim.suite", 0, "probes")
	res := sim.RunSuiteGroup(pool.NewGroup(), specs, cfg)
	tr.end(s, res.TotalEvents())
}

func probeOne(o *options, tr *tracer, parent int, spec workload.Spec, scale float64, memBudget int64, i int) error {
	s := tr.start("workload.gen", parent, "")
	var count trace.CountingSink
	spec.Run(&count, scale)
	tr.end(s, count.N)
	n := count.N

	// The remaining probes read plain decoded columns, so each times its
	// own layer and none pays for another's decode.
	rec := trace.NewChunkRecorder(0)
	spec.Run(rec, scale)
	cols, err := columns(trace.NewResidentHandle(rec.Trace()))
	if err != nil {
		return err
	}

	s = tr.start("core.profile", parent, "")
	prof := core.NewProfiler()
	feed(cols, prof.Branch)
	tr.end(s, n)

	var h *trace.Handle
	s = tr.start("trace.encode", parent, "")
	if memBudget > 0 {
		sr, err := trace.NewStreamRecorder(filepath.Join(o.tmp, fmt.Sprintf("probe-%d.btr", i)), 0, memBudget)
		if err != nil {
			return err
		}
		feed(cols, sr.Branch)
		if h, err = sr.Seal(); err != nil {
			return err
		}
	} else {
		enc := trace.NewChunkRecorder(0)
		feed(cols, enc.Branch)
		h = trace.NewResidentHandle(enc.Trace())
	}
	tr.end(s, n)

	s = tr.start("trace.decode", parent, "")
	for k := 0; k < h.Chunks(); k++ {
		if _, err := h.DecodeChunk(k); err != nil {
			return err
		}
	}
	tr.end(s, n)

	s = tr.start("bpred.sweep", parent, "")
	wrong := make([]uint64, (trace.DefaultChunkEvents+63)/64)
	slots := 0
	for k := 0; k <= bpred.MaxHistory; k++ {
		for _, p := range []interface {
			SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
		}{bpred.NewPAs(k), bpred.NewGAs(k)} {
			for _, c := range cols {
				clear(wrong)
				p.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
			}
			slots++
		}
	}
	tr.end(s, n*int64(slots))

	preds := ablationPredictors(core.Classify(prof.Profiles()), prof.Profiles())
	s = tr.start("bpred.replay", parent, "")
	for _, p := range preds {
		feed(cols, bpred.NewSink(p).Branch)
	}
	tr.end(s, n*int64(len(preds)))
	return nil
}

// columns decodes every chunk of h into its own columns.
func columns(h *trace.Handle) ([]trace.DecodedChunk, error) {
	cols := make([]trace.DecodedChunk, h.Chunks())
	for k := range cols {
		d, err := h.DecodeChunk(k)
		if err != nil {
			return nil, err
		}
		cols[k] = d
	}
	return cols, nil
}

// feed drives every decoded event through branch, in stream order.
func feed(cols []trace.DecodedChunk, branch func(pc uint64, taken bool)) {
	for _, c := range cols {
		for i := 0; i < c.N; i++ {
			branch(c.PCs[i], c.Dirs[i>>6]>>(uint(i)&63)&1 == 1)
		}
	}
}

// ablationPredictors is the predictor set the A1 and A5 ablations replay
// per event, built as they build it for one input.
func ablationPredictors(classes core.ClassMap, profiles map[uint64]*core.Profile) []bpred.Predictor {
	bias := make(map[uint64]bool, len(profiles))
	for pc, p := range profiles {
		bias[pc] = p.TakenRate() >= 0.5
	}
	return []bpred.Predictor{
		bpred.NewTransitionHybrid(classes, profiles, bpred.HybridComponents{}),
		bpred.NewTakenHybrid(classes, profiles, bpred.HybridComponents{}),
		bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{}),
		bpred.NewGShare(bpred.GAsPHTBits, 12),
		bpred.NewPAs(8),
		bpred.NewGAs(10),
		bpred.NewBimodal(bpred.GAsPHTBits),
		bpred.NewAgree(bpred.GAsPHTBits, 10, 14),
		bpred.NewTournament("Tournament(PAs8,gshare10)", bpred.NewPAs(8), bpred.NewGShare(16, 10), 12),
		bpred.NewStaticBias(bias),
		bpred.NewLastTime(bpred.GAsPHTBits),
		bpred.NewBiMode(16, 15, 12),
		bpred.NewYAGS(16, 14, 8, 12),
		bpred.NewFilter(14, 32, bpred.NewGShare(16, 12)),
		bpred.NewGSkew(16, 12),
	}
}
