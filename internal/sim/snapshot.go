package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"btr/internal/bpred"
	"btr/internal/trace"
)

// snapshotBounds splits nchunks into at most ranges contiguous ranges
// of near-equal size: range r covers chunks [bounds[r], bounds[r+1]).
// ranges is clamped to nchunks so no range is empty.
func snapshotBounds(nchunks, ranges int) []int {
	if ranges > nchunks {
		ranges = nchunks
	}
	if ranges < 1 {
		ranges = 1
	}
	b := make([]int, ranges+1)
	for r := 0; r <= ranges; r++ {
		b[r] = r * nchunks / ranges
	}
	return b
}

// SnapshotPredictor is the contract RunPredictorSnapshot needs from a
// predictor: bpred's base and checkpoint protocols plus both batch
// loops. PAs and GAs satisfy it.
type SnapshotPredictor interface {
	bpred.Predictor
	bpred.Snapshotter
	SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
	UpdateChunk(pcs, dirs []uint64, n int)
}

// SnapshotRunStats reports a RunPredictorSnapshot run's shape.
type SnapshotRunStats struct {
	// Ranges is the number of parallel ranges actually used (the
	// requested count clamped to the chunk count).
	Ranges int
	// Snapshots and SnapshotBytes count the checkpoints taken.
	Snapshots     int64
	SnapshotBytes int64
}

// RunPredictorSnapshot replays a recorded trace through one predictor
// with checkpointed range parallelism — the single-predictor analogue
// of Config.SnapshotRanges, used by brsim. mk builds a fresh predictor
// (called once for the warmup chain and once per worker); the trace is
// split into ranges ranges, a sequential update-only warmup emits a
// snapshot at every boundary, and workers (0 = GOMAXPROCS) replay the
// ranges concurrently from their snapshots, folding per-range miss
// counts in range order. The result is bit-identical to bpred.Run over
// the same handle. A chunk that fails to page in — from the warmup or
// any range worker — ends the run with that error, wrapped so
// errors.Is(err, trace.ErrCorruptSpill) still classifies a damaged
// spill file.
func RunPredictorSnapshot(h *trace.Handle, mk func() SnapshotPredictor, ranges, workers int) (bpred.Result, SnapshotRunStats, error) {
	bounds := snapshotBounds(h.Chunks(), ranges)
	nr := len(bounds) - 1
	warm := mk()
	res := bpred.Result{Name: warm.Name(), Events: h.Events()}
	stats := SnapshotRunStats{Ranges: nr}
	if h.Chunks() == 0 {
		return res, stats, nil
	}
	pageErr := func(k int, err error) error {
		return fmt.Errorf("trace: paging chunk %d: %w", k, err)
	}
	// Sequential warmup: snapshot the initial state too, so every range
	// — including range 0, whichever worker claims it — restores rather
	// than relying on construction-order freshness.
	snaps := make([][]byte, nr)
	takeSnap := func(r int) {
		snap := make([]byte, warm.SnapshotBytes())
		warm.SnapshotTo(snap)
		snaps[r] = snap
		stats.Snapshots++
		stats.SnapshotBytes += int64(len(snap))
	}
	takeSnap(0)
	var pcs, dirs []uint64
	for r := 0; r+1 < nr; r++ {
		for k := bounds[r]; k < bounds[r+1]; k++ {
			d, err := h.DecodeChunkInto(k, pcs, dirs)
			if err != nil {
				return res, stats, pageErr(k, err)
			}
			pcs, dirs = d.PCs, d.Dirs
			warm.UpdateChunk(d.PCs, d.Dirs, d.N)
		}
		takeSnap(r + 1)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nr {
		workers = nr
	}
	missByRange := make([]int64, nr)
	errByRange := make([]error, nr)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := mk()
			var pcs, dirs, wrong []uint64
			for !failed.Load() {
				r := int(next.Add(1)) - 1
				if r >= nr {
					return
				}
				p.RestoreFrom(snaps[r])
				var miss int64
				for k := bounds[r]; k < bounds[r+1]; k++ {
					d, err := h.DecodeChunkInto(k, pcs, dirs)
					if err != nil {
						errByRange[r] = pageErr(k, err)
						failed.Store(true)
						return
					}
					pcs, dirs = d.PCs, d.Dirs
					words := (d.N + 63) / 64
					if len(wrong) < words {
						wrong = make([]uint64, words)
					}
					clear(wrong[:words])
					p.SweepChunk(d.PCs, d.Dirs, d.N, wrong[:words])
					for _, bits := range wrong[:words] {
						miss += int64(mathbits.OnesCount64(bits))
					}
				}
				missByRange[r] = miss
			}
		}()
	}
	wg.Wait()
	for r, m := range missByRange {
		if err := errByRange[r]; err != nil {
			return res, stats, err
		}
		res.Misses += m
	}
	return res, stats, nil
}
