package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// InputError records one input that produced no result, with the
// recovered cause (e.g. a panicking workload generator).
type InputError struct {
	// Spec names the failed input; zero when the caller aggregated a nil
	// result without spec context.
	Spec workload.Spec
	// Err is the recovered cause.
	Err error
}

// Error renders "bench/input: cause".
func (e InputError) Error() string {
	name := e.Spec.Name()
	if e.Spec.Bench == "" && e.Spec.Input == "" {
		name = "input"
	}
	return fmt.Sprintf("%s: %v", name, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e InputError) Unwrap() error { return e.Err }

// errNoResult is the cause recorded when a nil result carries no
// explanation of its own.
var errNoResult = errors.New("produced no result")

// ErrCanceled is the cause recorded for inputs dropped because their
// suite run's group was canceled (sched.Group.Cancel — a disconnected
// brserve client, a deadline, an interrupt). Test with errors.Is: the
// recorded error may wrap it in task context.
var ErrCanceled = errors.New("suite run canceled")

// recoveredErr wraps a recovered panic value in task context. Error
// values keep their chain (%w) so upper layers can classify the cause —
// errors.Is(err, trace.ErrCorruptSpill) must see through "bank sweep
// failed: ..." for the suite's quarantine-and-retry round to trigger.
func recoveredErr(prefix string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return fmt.Errorf("%s: %v", prefix, r)
}

// SuiteResult aggregates InputResults across benchmark inputs, dynamic-
// occurrence weighted, which is how every paper figure reports data.
type SuiteResult struct {
	// Inputs holds the per-input results in suite order.
	Inputs []*InputResult

	// Distribution is the suite-wide joint distribution (Table 2, Figures
	// 1-2): each static branch weighted by its dynamic count, classified
	// within its own input's profile.
	Distribution core.Distribution

	// Exec and Miss are the summed class-attributed counts.
	Exec JointCounts
	Miss [NumKinds][NumHistories]JointCounts

	// HardByBench histograms Figure 15 distances per benchmark.
	HardByBench map[string]*stats.Histogram

	// Mem folds the per-input memory-shape counters (recording
	// footprint, spill page-ins, decoded-pool traffic): counters sum
	// across inputs, the peaks are the largest single input's (inputs
	// run concurrently, so suite-wide peaks are not additive).
	Mem MemStats

	// Dropped records the inputs skipped during aggregation — workloads
	// that failed to produce a result — each with its spec and the
	// recovered cause, so a failed run is diagnosable.
	Dropped []InputError
}

// RunSuite runs every spec through the two-pass pipeline and aggregates,
// as one group on cfg.Sched or, when that is nil, on a private
// scheduler of cfg.Workers workers stopped on return (see
// RunSuiteGroup for the task grid).
func RunSuite(specs []workload.Spec, cfg Config) *SuiteResult {
	s := cfg.Sched
	if s == nil {
		// Workers are NOT clamped to len(specs): the sweep fan-out gives
		// every core work even for a single-input suite.
		s = sched.New(cfg.suiteWorkers())
		defer s.Close()
	}
	return RunSuiteGroup(s.NewGroup(), specs, cfg)
}

func (c Config) suiteWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSuiteOn is RunSuite as a fresh group on s, which may be shared by
// any number of concurrent suite runs: each call gets a private barrier
// (and private panic propagation) while every call's tasks
// steal-balance over the same workers. The scheduler is left running.
func RunSuiteOn(s *sched.Scheduler, specs []workload.Spec, cfg Config) *SuiteResult {
	return RunSuiteGroup(s.NewGroup(), specs, cfg)
}

// RunSuiteGroup runs the suite's task grid as group g and waits for it.
// Each input starts as a profile+record task; its completed recording
// fans out an attribution grid over chunk ranges, whose last task
// launches the bank sweep grid (sweepGrid) into the same queue, so
// late-arriving fan-out from a heavy input backfills cores freed by
// small ones. Every task is a pure function of its input's recorded
// stream, so scheduling order — and any number of concurrent callers
// on the same scheduler — cannot change results.
//
// The caller owns g and can Cancel it mid-run (a disconnected client, a
// deadline): canceled inputs land in SuiteResult.Dropped with
// ErrCanceled and the call returns once the queued tasks drain, in
// bounded time because every grid checks the flag at task boundaries.
//
// It is also where spill corruption is recovered: an input that failed
// because its cached recording no longer decodes (errors.Is
// trace.ErrCorruptSpill — a checksum mismatch, a truncated file) has
// the cache entry quarantined and is re-run once on the same group.
// The retry finds no recording and re-records from the generator, so
// its result is bit-identical to an uncorrupted run; a second failure
// stays in Dropped with its cause.
func RunSuiteGroup(g *sched.Group, specs []workload.Spec, cfg Config) *SuiteResult {
	workers := g.Scheduler().Workers()
	results := make([]*InputResult, len(specs))
	errs := make([]error, len(specs))
	submit := func(i int) {
		g.Submit(func(w *sched.Worker) {
			profileTask(w, specs[i], cfg, workers, &results[i], &errs[i])
		})
	}
	for i := range specs {
		submit(i)
	}
	g.Wait()
	if cfg.Cache != nil && !g.Canceled() {
		retried := false
		for i := range specs {
			if results[i] == nil && errors.Is(errs[i], trace.ErrCorruptSpill) {
				cfg.Cache.Quarantine(cfg.cacheKey(specs[i]))
				errs[i] = nil
				submit(i)
				retried = true
			}
		}
		if retried {
			g.Wait()
		}
	}
	return aggregate(results, specs, errs, cfg)
}

// profileTask runs one input's pass 1 and hands the recording to the
// attribution grid, which in turn launches the bank sweep; a profile-
// cache hit skips straight to the sweep. A panicking workload is
// converted to a per-input error (the result stays nil and is reported
// via SuiteResult.Dropped); the suite run continues. The sweep's last
// task folds the counters and publishes the result — the group's Wait
// barrier makes the write visible to the aggregation.
func profileTask(w *sched.Worker, spec workload.Spec, cfg Config, workers int, out **InputResult, errOut *error) {
	if w.Canceled() {
		*errOut = ErrCanceled
		return
	}
	if res, classIdx, ok := profileCached(spec, cfg); ok {
		// Cached profile: no generator, no attribution — straight to sweep.
		startSweep(w, cfg, res, classIdx, trace.NewDecodedPool(res.Recorded, cfg.DecodedBudget), out, errOut)
		return
	}
	var res *InputResult
	func() {
		defer func() {
			if r := recover(); r != nil {
				*errOut = recoveredErr("workload panicked", r)
			}
		}()
		res = passOne(spec, cfg)
	}()
	if res == nil {
		return
	}
	newAttribGrid(cfg, spec, res, workers, out, errOut).launch(w)
}

// Aggregate folds per-input results into a SuiteResult. Nil entries —
// inputs that never produced a result — are skipped and reported via
// Dropped rather than panicking the whole suite.
func Aggregate(results []*InputResult, cfg Config) *SuiteResult {
	return aggregate(results, nil, nil, cfg)
}

// aggregate is Aggregate plus the per-input context RunSuite has:
// specs[i] and errs[i] explain a nil results[i]. Either slice may be
// nil.
func aggregate(results []*InputResult, specs []workload.Spec, errs []error, cfg Config) *SuiteResult {
	suite := &SuiteResult{
		Inputs:      make([]*InputResult, 0, len(results)),
		HardByBench: make(map[string]*stats.Histogram),
	}
	for i, r := range results {
		if r == nil {
			ie := InputError{Err: errNoResult}
			if specs != nil {
				ie.Spec = specs[i]
			}
			if errs != nil && errs[i] != nil {
				ie.Err = errs[i]
			}
			suite.Dropped = append(suite.Dropped, ie)
			continue
		}
		suite.Inputs = append(suite.Inputs, r)
		suite.Distribution.AddProfiles(r.Profiles)
		suite.Exec.Add(&r.Exec)
		suite.Mem.Add(&r.Mem)
		for kind := Kind(0); kind < NumKinds; kind++ {
			for k := 0; k < NumHistories; k++ {
				suite.Miss[kind][k].Add(&r.Miss[kind][k])
			}
		}
		h := suite.HardByBench[r.Spec.Bench]
		if h == nil {
			h = stats.NewHistogram(cfg.window() + 1)
			suite.HardByBench[r.Spec.Bench] = h
		}
		for i, c := range r.HardDistances.Bins {
			h.Bins[i] += c
		}
	}
	return suite
}

// Benchmarks lists the distinct benchmark names present, in input order.
func (s *SuiteResult) Benchmarks() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.Inputs {
		if !seen[r.Spec.Bench] {
			seen[r.Spec.Bench] = true
			out = append(out, r.Spec.Bench)
		}
	}
	sort.Strings(out)
	return out
}

// TotalEvents sums dynamic branches across inputs.
func (s *SuiteResult) TotalEvents() int64 {
	var sum int64
	for _, r := range s.Inputs {
		sum += r.Events
	}
	return sum
}
