package sim

import (
	"sync/atomic"

	"btr/internal/bpred"
	"btr/internal/sched"
	"btr/internal/trace"
)

// The bank sweep. One input's PAs/GAs sweep runs as a (slot × range)
// grid of chains on the shared scheduler: every bank slot's chunk axis
// splits into Config.SnapshotRanges contiguous ranges (one by default),
// and each (slot, range) is a chain of one-chunk tasks over the
// decoded-chunk pool. A chain's tasks run strictly in order — the
// predictor rides the chain from task to task — so each chain is
// bit-identical to a serial sweep of its chunks, while distinct chains
// are independent and steal-balance across every core.
//
// Range 0 starts from a fresh predictor. Range r > 0 starts from a
// checkpoint: a predict-free warmup chain per slot replays the chunks
// before the last range through UpdateChunk — Predict has no side
// effects, so the state it leaves is exactly a predicting sweep's — and
// snapshots the predictor at every range boundary, releasing that
// range's chain. Each chain counts into its own missCell, and the last
// chain to finish folds them in (slot, range) order.
//
// With one range the grid is 34 chains, so one input's sweep is capped
// at 34-way parallelism. More ranges lift the cap, but the warmup
// replays all but the last range a second time, so checkpointing only
// pays when cores outnumber slots.

// slotPredictor is what the grid needs from a bank slot's predictor:
// the batch sweep, the predict-free batch update for warmup chains, and
// bpred's checkpoint protocol. PAs and GAs satisfy it.
type slotPredictor interface {
	chunkSweeper
	UpdateChunk(pcs, dirs []uint64, n int)
	bpred.Snapshotter
}

// gridGuard is the failure latch a grid's tasks share. The first
// failure — a task panic (a spill paging error) or a canceled group —
// records its cause once; every later task bails out at its next
// boundary, the grid never publishes, and the input is reported via
// SuiteResult.Dropped.
type gridGuard struct {
	failed atomic.Bool
	errOut *error
}

// poison records err as the grid's failure cause unless one is already
// recorded.
func (g *gridGuard) poison(err error) {
	if g.failed.CompareAndSwap(false, true) {
		*g.errOut = err
	}
}

// guard converts a task panic into the grid's poison; tasks defer it.
func (g *gridGuard) guard(prefix string) {
	if r := recover(); r != nil {
		g.poison(recoveredErr(prefix, r))
	}
}

// bail reports whether the task should unwind without doing work: the
// grid is already poisoned, or its group has been canceled (which
// poisons it with ErrCanceled).
func (g *gridGuard) bail(w *sched.Worker) bool {
	if g.failed.Load() {
		return true
	}
	if w.Canceled() {
		g.poison(ErrCanceled)
		return true
	}
	return false
}

// sweepGrid is one input's in-flight bank sweep. pending counts the
// sweep chains not yet finished (preset before any submission); warmup
// chains gate their ranges' heads, so a poisoned warmup leaves pending
// above zero and the input unpublished.
type sweepGrid struct {
	gridGuard
	pool     *trace.DecodedPool
	convoy   bool // the pool evicts (DecodedBudget > 0): continue chains FIFO
	res      *InputResult
	classIdx []uint8
	bounds   []int // range r covers chunks [bounds[r], bounds[r+1])
	chains   []sweepChain
	warm     []sweepChain // one per slot; empty with a single range
	pending  atomic.Int32

	// Snapshot accounting: count and total are cumulative, live tracks
	// outstanding snapshot bytes (each is freed when its range restores
	// it), peak is live's high-water mark.
	snapCount, snapTotal, snapLive, snapPeak atomic.Int64

	out **InputResult
}

// sweepChain is one chain's state. Only the chain's current task
// touches it, and each task submits its successor, so it needs no
// locking; a range head's snap is written by the slot's warmup before
// the head is submitted.
type sweepChain struct {
	slot int
	r    int  // sweep: the chain's range; warmup: the range being warmed
	warm bool // update-only warmup chain
	p    slotPredictor
	next int    // next chunk to visit
	end  int    // one past the chain's last chunk
	snap []byte // range > 0: the boundary checkpoint, dropped once restored
	cell missCell
}

// startSweep launches res's bank sweep over pool. Sweep heads go out
// oldest-first, slot-major: the submitting worker pops the last one
// LIFO and rides it chunk by chunk (hot predictor tables) while thieves
// peel un-started chains FIFO. Warmup heads go out last, so the
// submitting worker rides a warmup — the critical path — first.
func startSweep(w *sched.Worker, cfg Config, res *InputResult, classIdx []uint8, pool *trace.DecodedPool, out **InputResult, errOut *error) {
	nchunks := res.Recorded.Chunks()
	g := &sweepGrid{
		gridGuard: gridGuard{errOut: errOut},
		pool:      pool,
		convoy:    cfg.DecodedBudget > 0,
		res:       res,
		classIdx:  classIdx,
		bounds:    snapshotBounds(nchunks, cfg.SnapshotRanges),
		out:       out,
	}
	if nchunks == 0 {
		g.publish()
		return
	}
	ranges := len(g.bounds) - 1
	g.chains = make([]sweepChain, numBankSlots*ranges)
	for i := range g.chains {
		slot, r := i/ranges, i%ranges
		g.chains[i] = sweepChain{slot: slot, r: r, next: g.bounds[r], end: g.bounds[r+1]}
	}
	g.pending.Store(int32(len(g.chains)))
	for slot := 0; slot < numBankSlots; slot++ {
		c := &g.chains[slot*ranges]
		w.Submit(func(w *sched.Worker) { g.step(w, c) })
	}
	if ranges > 1 {
		g.warm = make([]sweepChain, numBankSlots)
		for slot := range g.warm {
			c := &g.warm[slot]
			*c = sweepChain{slot: slot, warm: true, end: g.bounds[ranges-1]}
			w.Submit(func(w *sched.Worker) { g.step(w, c) })
		}
	}
}

// step runs one chain's next chunk and submits the chain's successor:
// the next chunk, a range head released by a warmup checkpoint, or —
// as the last sweep chain of the grid to finish — the fold.
func (g *sweepGrid) step(w *sched.Worker, c *sweepChain) {
	defer g.guard("bank sweep failed")
	if g.bail(w) {
		return
	}
	if c.p == nil {
		c.p = bankSlotPredictor(c.slot)
		if c.snap != nil {
			c.p.RestoreFrom(c.snap)
			g.snapLive.Add(-int64(len(c.snap)))
			c.snap = nil
		}
	}
	k := c.next
	d := g.pool.Checkout(k)
	if c.warm {
		c.p.UpdateChunk(d.PCs, d.Dirs, d.N)
	} else {
		var wrong [(trace.DefaultChunkEvents + 63) / 64]uint64
		scratch := wrong[:]
		if words := (d.N + 63) / 64; words > len(scratch) {
			scratch = make([]uint64, words)
		}
		sweepDecodedChunk(c.p, d, g.classIdx[d.Base:d.Base+int64(d.N)], &c.cell, scratch)
	}
	g.pool.Release(k)
	c.next++
	if c.warm && c.next == g.bounds[c.r+1] {
		g.checkpoint(w, c)
	}
	switch {
	case c.next < c.end && !c.warm && g.convoy:
		// An evicting pool convoys the sweep chains: breadth-first
		// continuations keep every slot's cursor clustered, so a chunk
		// decoded for one chain is still in the pool's transit band when
		// the other chains arrive, instead of each chain re-paying the
		// decode on its own depth-first march.
		w.SubmitFair(func(w *sched.Worker) { g.step(w, c) })
	case c.next < c.end:
		w.Submit(func(w *sched.Worker) { g.step(w, c) })
	default:
		c.p = nil // the chain is done; drop its tables
		if !c.warm && g.pending.Add(-1) == 0 {
			g.publish()
		}
	}
}

// checkpoint snapshots warmup chain c, which has just reached the end
// of range c.r — its state is exactly a sweep's at the start of range
// c.r+1 — and releases that range's head.
func (g *sweepGrid) checkpoint(w *sched.Worker, c *sweepChain) {
	snap := make([]byte, c.p.SnapshotBytes())
	c.p.SnapshotTo(snap)
	n := int64(len(snap))
	g.snapCount.Add(1)
	g.snapTotal.Add(n)
	live := g.snapLive.Add(n)
	for {
		peak := g.snapPeak.Load()
		if live <= peak || g.snapPeak.CompareAndSwap(peak, live) {
			break
		}
	}
	c.r++
	head := &g.chains[c.slot*(len(g.bounds)-1)+c.r]
	head.snap = snap
	w.Submit(func(w *sched.Worker) { g.step(w, head) })
}

// publish folds the chains' cells into res.Miss in (slot, range) order
// — int64 sums, so any order would be bit-identical anyway — records
// the input's memory-shape counters and hands the result out.
func (g *sweepGrid) publish() {
	flat := make([]missCell, numBankSlots)
	for i := range g.chains {
		addCell(&flat[g.chains[i].slot], &g.chains[i].cell)
	}
	foldMisses(g.res, flat)
	h, s := g.res.Recorded, g.pool.Stats()
	g.res.Mem = MemStats{
		RecordedBytes:    h.EncodedBytes(),
		ResidentPeak:     h.ResidentPeak(),
		PageIns:          h.PageIns(),
		DecodedHits:      s.Hits,
		DecodedRedecodes: s.Redecodes,
		DecodedEvicted:   s.Evicted,
		DecodedPeak:      s.HighWater,
		SnapshotCount:    g.snapCount.Load(),
		SnapshotBytes:    g.snapTotal.Load(),
		SnapshotPeak:     g.snapPeak.Load(),
	}
	*g.out = g.res
}
