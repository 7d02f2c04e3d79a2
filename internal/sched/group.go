package sched

import (
	"sync"
	"sync/atomic"
)

// Group tracks the completion of one related set of tasks — typically
// one request's task grid — on a scheduler whose lifetime spans many
// such sets. Scheduler.Wait drains the whole queue and spends the
// scheduler; a Group waits only for its own tasks, so concurrent
// requests interleave their grids over one worker pool and each caller
// still gets a private barrier.
//
// Membership is sticky through fan-out: a task submitted via
// Group.Submit runs with the worker's group pointer set, so any
// follow-up it pushes through Worker.Submit is wrapped into the same
// group without the submitting code knowing groups exist. That is what
// lets sim's sweep grids — which fan out thousands of chunk-range
// continuations — ride a shared server scheduler unchanged.
//
// A panic escaping a group's task is captured in the group (not the
// scheduler) and re-raised by the group's own Wait: one tenant's bug
// surfaces on that tenant's waiter instead of poisoning the shared
// pool.
type Group struct {
	s        *Scheduler
	pending  atomic.Int64
	canceled atomic.Bool

	mu       sync.Mutex // guards cond and panicked
	cond     *sync.Cond
	panicked []any
}

// NewGroup returns an empty group on s. A group is reusable in the weak
// sense that Wait returns whenever the count is zero, but the intended
// shape is submit-all-then-Wait per request.
func (s *Scheduler) NewGroup() *Group {
	g := &Group{s: s}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Scheduler returns the scheduler the group runs on.
func (g *Group) Scheduler() *Scheduler { return g.s }

// Cancel flags the group as canceled. The scheduler keeps running every
// already-queued member to completion — tasks are cheap and the count
// must drain for Wait to return — but cooperative workloads observe the
// flag (Worker.Canceled) at their task boundaries and unwind instead of
// doing real work. Idempotent and safe from any goroutine, including
// concurrently with Wait.
func (g *Group) Cancel() { g.canceled.Store(true) }

// Canceled reports whether Cancel was called.
func (g *Group) Canceled() bool { return g.canceled.Load() }

// Submit enqueues a task into the scheduler's injector queue as a
// member of g. Safe from any goroutine.
func (g *Group) Submit(t Task) {
	g.s.Submit(g.wrap(t))
}

// wrap registers one task with the group before it is published (so
// Wait can never observe a queued-but-uncounted member) and returns the
// closure that maintains the worker's group pointer, captures panics,
// and signals the barrier on the last completion.
func (g *Group) wrap(t Task) Task {
	g.pending.Add(1)
	return func(w *Worker) {
		prev := w.g
		w.g = g
		defer func() {
			r := recover()
			w.g = prev
			if r != nil {
				g.mu.Lock()
				g.panicked = append(g.panicked, r)
				g.mu.Unlock()
			}
			// The decrement comes after any fan-out the task performed
			// (Worker.Submit runs inside t), so the count can only reach
			// zero when the group's whole task tree has finished.
			if g.pending.Add(-1) == 0 {
				g.mu.Lock()
				g.cond.Broadcast()
				g.mu.Unlock()
			}
		}()
		t(w)
	}
}

// Wait blocks until every task submitted to the group — including fan-
// out submitted by running group tasks — has finished. If any group
// task panicked, Wait re-panics with the first recovered value (and
// clears the record, so a recovered caller can keep using the
// scheduler). The scheduler itself keeps running; other groups are
// unaffected.
//
// Scheduler stats may trail Wait by the finishing task: the group's
// count drops inside the task's wrapper, while the scheduler's Pending
// count drops only after the wrapper returns, so Stats().Pending can
// still read 1 just after Wait returns.
func (g *Group) Wait() {
	g.mu.Lock()
	for g.pending.Load() > 0 {
		g.cond.Wait()
	}
	p := g.panicked
	g.panicked = nil
	g.mu.Unlock()
	if len(p) > 0 {
		panic(p[0])
	}
}
