package sim

import (
	"sync/atomic"

	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// attribGrid is the parallel attribution pre-pass: the per-event class
// column (which the sweep attributes misses against, instead of hitting
// the class map once per slot per event), Exec counts and Figure 15
// hard distances are computed per chunk range, in parallel, through the
// same decoded-chunk pool the bank sweep will use (warming it in the
// process). Class resolution and Exec attribution are embarrassingly
// parallel — each range writes a disjoint classIdx segment and its own
// counters — while the hard distances, whose chain crosses range
// boundaries, are stitched sequentially from per-range (first, last)
// hard positions once every range has finished. The stitch is exact,
// not approximate: within-range distances use the same raw positions a
// serial pass subtracts, and each boundary distance is firstHard(range
// r) − lastHard(range r−1), so the result is bit-identical to a serial
// pass (TestSuiteMatchesOracle).
//
// The last range to finish performs the stitch, publishes the profile
// cache entry, and launches the bank sweep on the shared pool.
type attribGrid struct {
	gridGuard
	pool     *trace.DecodedPool
	cfg      Config
	spec     workload.Spec
	res      *InputResult
	classIdx []uint8
	lookup   classLookup
	stride   int // chunks per range
	parts    []attribPart

	remaining atomic.Int32
	out       **InputResult
}

// attribPart is one range's private attribution state. firstHard and
// lastHard are raw global event indices (-1 = no hard branch in range);
// hist holds the range-internal distances.
type attribPart struct {
	exec                JointCounts
	hist                *stats.Histogram
	firstHard, lastHard int64
}

// newAttribGrid sizes the grid at roughly four ranges per worker —
// coarse enough that per-range state (a JointCounts and a histogram) is
// noise, fine enough to steal-balance the pre-pass across cores.
func newAttribGrid(cfg Config, spec workload.Spec, res *InputResult, workers int, out **InputResult, errOut *error) *attribGrid {
	nchunks := res.Recorded.Chunks()
	stride := 1
	if target := 4 * workers; target > 0 && nchunks > target {
		stride = (nchunks + target - 1) / target
	}
	ranges := 0
	if nchunks > 0 {
		ranges = (nchunks + stride - 1) / stride
	}
	g := &attribGrid{
		gridGuard: gridGuard{errOut: errOut},
		pool:      trace.NewDecodedPool(res.Recorded, cfg.DecodedBudget),
		cfg:       cfg,
		spec:      spec,
		res:       res,
		classIdx:  make([]uint8, res.Recorded.Events()),
		lookup:    denseClasses(res.Classes),
		stride:    stride,
		parts:     make([]attribPart, ranges),
		out:       out,
	}
	g.remaining.Store(int32(ranges))
	return g
}

// launch submits every range as an independent task; an empty recording
// skips straight to the (empty) stitch and sweep.
func (g *attribGrid) launch(w *sched.Worker) {
	if len(g.parts) == 0 {
		g.finish(w)
		return
	}
	for r := range g.parts {
		r := r
		w.Submit(func(w *sched.Worker) { g.runPart(w, r) })
	}
}

// runPart attributes one chunk range. A panic (a paging failure, or a
// corrupt spill) or a canceled group poisons the grid (gridGuard): the
// remaining counter never reaches zero, the sweep never launches, and
// the input is reported via SuiteResult.Dropped.
func (g *attribGrid) runPart(w *sched.Worker, r int) {
	defer g.guard("attribution failed")
	if g.bail(w) {
		return
	}
	p := &g.parts[r]
	p.hist = stats.NewHistogram(len(g.res.HardDistances.Bins))
	p.firstHard, p.lastHard = -1, -1
	nchunks := g.res.Recorded.Chunks()
	end := (r + 1) * g.stride
	if end > nchunks || end < 0 {
		end = nchunks
	}
	for k := r * g.stride; k < end; k++ {
		d := g.pool.Checkout(k)
		for i := 0; i < d.N; i++ {
			ci := g.lookup.classOf(d.PCs[i], g.res.Classes)
			pos := d.Base + int64(i)
			g.classIdx[pos] = ci
			p.exec[ci/core.NumClasses][ci%core.NumClasses]++
			if ci == hardIdx {
				if p.lastHard >= 0 {
					p.hist.Add(int(pos - p.lastHard))
				} else {
					p.firstHard = pos
				}
				p.lastHard = pos
			}
		}
		g.pool.Release(k)
	}
	if g.remaining.Add(-1) == 0 {
		g.finish(w)
	}
}

// finish stitches the ranges in order (boundary hard distances, Exec
// sums, histogram merge), publishes the profile-cache entry, and hands
// the shared pool to the bank sweep.
func (g *attribGrid) finish(w *sched.Worker) {
	prevLast := int64(-1)
	for r := range g.parts {
		p := &g.parts[r]
		g.res.Exec.Add(&p.exec)
		for i, c := range p.hist.Bins {
			g.res.HardDistances.Bins[i] += c
		}
		if p.firstHard >= 0 && prevLast >= 0 {
			g.res.HardDistances.Add(int(p.firstHard - prevLast))
		}
		if p.lastHard >= 0 {
			prevLast = p.lastHard
		}
	}
	if g.cfg.Profiles != nil {
		g.cfg.Profiles.put(g.cfg.cacheKey(g.spec), g.cfg.window(), g.res, g.classIdx)
	}
	startSweep(w, g.cfg, g.res, g.classIdx, g.pool, g.out, g.errOut)
}
