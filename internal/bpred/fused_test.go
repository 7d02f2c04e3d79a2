package bpred

import (
	"testing"

	"btr/internal/core"
)

// The PredictUpdater contract: a fused step must be indistinguishable from
// a Predict-then-Update pair. Each implementation is driven against a
// freshly-built twin over the same stream, comparing every prediction.

func fusedStream(n int) []struct {
	pc    uint64
	taken bool
} {
	out := make([]struct {
		pc    uint64
		taken bool
	}, n)
	r := uint64(0x1234567)
	for i := range out {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		out[i].pc = 0x400000 + (r%1024)*4
		out[i].taken = r&4 != 0
	}
	return out
}

// mixedStream interleaves four behaviours by site — always taken, strict
// alternation, long runs, and random — so composite predictors exercise
// every component they route to. It returns the stream and its
// profiles and classes.
func mixedStream(n int) ([]struct {
	pc    uint64
	taken bool
}, map[uint64]*core.Profile, core.ClassMap) {
	out := fusedStream(n)
	p := core.NewProfiler()
	execs := make(map[uint64]int)
	for i := range out {
		pc := out[i].pc
		k := execs[pc]
		execs[pc]++
		switch (pc >> 2) % 4 {
		case 0:
			out[i].taken = true
		case 1:
			out[i].taken = k%2 == 0
		case 2:
			out[i].taken = (k/16)%2 == 0
		}
		p.Branch(pc, out[i].taken)
	}
	return out, p.Profiles(), core.Classify(p.Profiles())
}

func TestPredictUpdateMatchesSeparate(t *testing.T) {
	mixed, profiles, classes := mixedStream(40000)
	builders := map[string]func() Predictor{
		"PAs(0)":     func() Predictor { return NewPAs(0) },
		"PAs(8)":     func() Predictor { return NewPAs(8) },
		"PAs(16)":    func() Predictor { return NewPAs(16) },
		"GAs(0)":     func() Predictor { return NewGAs(0) },
		"GAs(10)":    func() Predictor { return NewGAs(10) },
		"GAg(12)":    func() Predictor { return NewGAg(12) },
		"PAg(8)":     func() Predictor { return NewPAg(8, 12) },
		"gshare":     func() Predictor { return NewGShare(16, 12) },
		"bimodal":    func() Predictor { return NewBimodal(14) },
		"lasttime":   func() Predictor { return NewLastTime(14) },
		"taken":      func() Predictor { return NewAlwaysTaken() },
		"staticbias": func() Predictor { return NewStaticBias(map[uint64]bool{0x400000: false}) },
		"agree":      func() Predictor { return NewAgree(16, 10, 14) },
		"tournament": func() Predictor {
			return NewTournament("t", NewPAs(6), NewGShare(14, 8), 12)
		},
		"transitionhybrid": func() Predictor { return NewTransitionHybrid(classes, profiles, HybridComponents{}) },
		"takenhybrid":      func() Predictor { return NewTakenHybrid(classes, profiles, HybridComponents{}) },
		"classhybrid(lasttime)": func() Predictor {
			// A component without a fused path steps through the adapter.
			return NewTransitionHybrid(classes, profiles, HybridComponents{Long: plainOnly{NewLastTime(12)}})
		},
		"dynamichybrid": func() Predictor { return NewDynamicClassHybrid(10, 16, HybridComponents{}) },
		"bimode":        func() Predictor { return NewBiMode(12, 11, 8) },
		"yags":          func() Predictor { return NewYAGS(12, 8, 6, 8) },
		"filter":        func() Predictor { return NewFilter(10, 8, NewGShare(12, 8)) },
		"gskew":         func() Predictor { return NewGSkew(12, 8) },
	}
	for si, stream := range [][]struct {
		pc    uint64
		taken bool
	}{fusedStream(20000), mixed} {
		for name, build := range builders {
			fused, separate := build(), build()
			pu, ok := fused.(PredictUpdater)
			if !ok {
				t.Errorf("%s: does not implement PredictUpdater", name)
				continue
			}
			for i, ev := range stream {
				want := separate.Predict(ev.pc)
				separate.Update(ev.pc, ev.taken)
				if got := pu.PredictUpdate(ev.pc, ev.taken); got != want {
					t.Fatalf("%s: stream %d event %d: fused=%v separate=%v", name, si, i, got, want)
				}
			}
		}
	}
}

// TestSweepChunkMatchesPredictUpdate pins the batch protocol: SweepChunk
// over decoded columns must be indistinguishable from per-event fused
// calls, including across chunk boundaries (history registers persist).
func TestSweepChunkMatchesPredictUpdate(t *testing.T) {
	type sweeper interface {
		SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
		PredictUpdate(pc uint64, taken bool) bool
	}
	builders := map[string]func() sweeper{
		"PAs(0)":  func() sweeper { return NewPAs(0) },
		"PAs(8)":  func() sweeper { return NewPAs(8) },
		"PAs(16)": func() sweeper { return NewPAs(16) },
		"GAs(0)":  func() sweeper { return NewGAs(0) },
		"GAs(10)": func() sweeper { return NewGAs(10) },
		"GAs(16)": func() sweeper { return NewGAs(16) },
	}
	stream := fusedStream(10000)
	for name, build := range builders {
		batch, scalar := build(), build()
		// Uneven chunk sizes exercise partial words and boundaries.
		for start := 0; start < len(stream); {
			n := 97
			if start+n > len(stream) {
				n = len(stream) - start
			}
			pcs := make([]uint64, n)
			dirs := make([]uint64, (n+63)/64)
			for i := 0; i < n; i++ {
				pcs[i] = stream[start+i].pc
				if stream[start+i].taken {
					dirs[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			wrong := make([]uint64, (n+63)/64)
			batch.SweepChunk(pcs, dirs, n, wrong)
			for i := 0; i < n; i++ {
				ev := stream[start+i]
				miss := scalar.PredictUpdate(ev.pc, ev.taken) != ev.taken
				got := wrong[i>>6]&(1<<(uint(i)&63)) != 0
				if got != miss {
					t.Fatalf("%s: event %d: batch miss=%v scalar miss=%v", name, start+i, got, miss)
				}
			}
			start += n
		}
	}
}

func TestStepFallsBackWithoutFusedPath(t *testing.T) {
	// A predictor implementing only the base interface must still work
	// through Step.
	type bare struct{ LastTime }
	p := &bare{*NewLastTime(8)}
	var plain Predictor = plainOnly{p}
	if got := Step(plain, 0x400000, true); got != false {
		t.Fatal("first prediction of a fresh last-time table must be not-taken")
	}
	if got := Step(plain, 0x400000, false); got != true {
		t.Fatal("second prediction must reflect the first update")
	}
}

// plainOnly hides any fused method so Step takes the fallback path.
type plainOnly struct{ p Predictor }

func (w plainOnly) Name() string                 { return w.p.Name() }
func (w plainOnly) Predict(pc uint64) bool       { return w.p.Predict(pc) }
func (w plainOnly) Update(pc uint64, taken bool) { w.p.Update(pc, taken) }
func (w plainOnly) SizeBits() int64              { return w.p.SizeBits() }
