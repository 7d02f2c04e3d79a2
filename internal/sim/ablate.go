package sim

import (
	"cmp"
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync/atomic"

	"btr/internal/bpred"
	"btr/internal/sched"
	"btr/internal/trace"
)

// ReplayGrid is the §5 ablations' replay engine: one scheduler task per
// (row × input) pair, where a row is one predictor (or estimator set,
// or filtering case) an ablation compares. task builds its own
// predictor from the input's profile, drives it over the input's event
// stream (EachChunk, CountMisses) and returns an integer partial;
// partials come back indexed [row][input] in rows and inputs order, so
// the caller's fold is deterministic and bit-identical to a serial
// replay whatever the worker count or steal order. Predictors live only
// inside their task, so at most one per worker is resident at a time.
//
// The grid runs as group g when one is given — the suite's own group
// (experiments.Context.SuiteGroup), so a brserve request's cancellation
// reaches its ablations — else as a fresh group on cfg.Sched, else on a
// private scheduler built like the suite's and closed on return. Tasks
// are submitted largest input first, so the longest replays start
// early and do not set the tail.
//
// A task that panics — a spill paging failure wrapping
// trace.ErrCorruptSpill on a budgeted context, a predictor bug — or
// finds its group canceled (ErrCanceled) fails the grid: the remaining
// tasks skip their replay, and the error names the row and the input.
// Must not be called from inside a scheduler task (it waits on g).
func ReplayGrid[T any](cfg Config, g *sched.Group, inputs []*InputResult, rows []string, task func(row int, in *InputResult) T) ([][]T, error) {
	if g == nil {
		s := cfg.Sched
		if s == nil {
			s = sched.New(cfg.suiteWorkers())
			defer s.Close()
		}
		g = s.NewGroup()
	}
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(inputs[b].Events, inputs[a].Events) })

	out := make([][]T, len(rows))
	errs := make([][]error, len(rows))
	var failed atomic.Bool
	for r := range rows {
		out[r] = make([]T, len(inputs))
		errs[r] = make([]error, len(inputs))
	}
	for _, i := range order {
		for r := range rows {
			g.Submit(func(w *sched.Worker) {
				if failed.Load() {
					return
				}
				defer func() {
					if p := recover(); p != nil {
						errs[r][i] = recoveredErr("replay failed", p)
						failed.Store(true)
					}
				}()
				if w.Canceled() {
					errs[r][i] = ErrCanceled
					failed.Store(true)
					return
				}
				out[r][i] = task(r, inputs[i])
			})
		}
	}
	g.Wait()
	for r := range rows {
		for i, err := range errs[r] {
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", rows[r], inputs[i].Spec.Name(), err)
			}
		}
	}
	return out, nil
}

// EachChunk drives the input's event stream through fn one chunk of
// columns at a time — event i's PC is pcs[i] and its direction bit i&63
// of dirs[i>>6]; both are valid only during the call. The stream is
// the recording's chunks when there is one (spilled chunks page in and
// panic on a paging error, as trace.ChunkReader does), otherwise a
// fresh generator run at scale (Config.NoRecord) batched into
// chunk-sized columns, so every ablation replays through the same
// column loop either way.
func (r *InputResult) EachChunk(scale float64, fn func(pcs, dirs []uint64, n int)) {
	if r.Recorded != nil {
		rep := r.Recorded.ChunkReader()
		for {
			pcs, dirs, n, ok := rep.NextChunk()
			if !ok {
				return
			}
			fn(pcs, dirs, n)
		}
	}
	b := &chunkBatcher{
		pcs:  make([]uint64, trace.DefaultChunkEvents),
		dirs: make([]uint64, trace.DefaultChunkEvents/64),
		fn:   fn,
	}
	r.Spec.Run(b, scale)
	b.flush()
}

// chunkBatcher packs a generator's events into chunk columns.
type chunkBatcher struct {
	pcs, dirs []uint64
	n         int
	fn        func(pcs, dirs []uint64, n int)
}

func (b *chunkBatcher) Branch(pc uint64, taken bool) {
	b.pcs[b.n] = pc
	if taken {
		b.dirs[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	b.n++
	if b.n == len(b.pcs) {
		b.flush()
	}
}

func (b *chunkBatcher) flush() {
	if b.n == 0 {
		return
	}
	b.fn(b.pcs, b.dirs, b.n)
	clear(b.dirs)
	b.n = 0
}

// CountMisses drives p over the input's stream with the predict-then-
// update protocol and returns its mispredictions and the event count.
// Predictors with a batch kernel (PAs, GAs) sweep whole chunks; the
// rest take one fused step per event (bpred.Fused).
func CountMisses(p bpred.Predictor, in *InputResult, scale float64) (misses, events int64) {
	if sw, ok := p.(chunkSweeper); ok {
		wrong := make([]uint64, (trace.DefaultChunkEvents+63)/64)
		in.EachChunk(scale, func(pcs, dirs []uint64, n int) {
			words := (n + 63) / 64
			if words > len(wrong) {
				wrong = make([]uint64, words)
			}
			clear(wrong[:words])
			sw.SweepChunk(pcs, dirs, n, wrong)
			for _, w := range wrong[:words] {
				misses += int64(mathbits.OnesCount64(w))
			}
			events += int64(n)
		})
		return misses, events
	}
	step := bpred.Fused(p)
	in.EachChunk(scale, func(pcs, dirs []uint64, n int) {
		for i := 0; i < n; i++ {
			taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
			if step.PredictUpdate(pcs[i], taken) != taken {
				misses++
			}
		}
		events += int64(n)
	})
	return misses, events
}
