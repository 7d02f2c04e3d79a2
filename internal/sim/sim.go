// Package sim is the experiment harness: it drives the instrumented
// workloads through a two-pass pipeline (profile, then predict) and
// produces the class-attributed miss statistics behind every figure and
// table in the paper.
//
// Pass 1 runs a workload into a core.Profiler, yielding each static
// branch's taken/transition profile and joint class, while a chunked
// recorder captures the stream. Pass 2 replays the recorded chunks —
// not the generator — into a bank of predictors, PAs(k) and GAs(k) for
// every history length k, attributing each hit/miss to the branch's
// joint class from pass 1. Classification uses the *complete* run's
// rates, exactly as the paper's profiling does.
//
// Both passes run as task grids on one work-stealing scheduler (see
// RunSuiteGroup and sweepGrid). Every predictor is a pure function of
// the event stream (bpred's contract), so the grid's scheduling order
// cannot change results: they are bit-for-bit identical to driving the
// bank serially.
package sim

import (
	"fmt"
	mathbits "math/bits"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// Kind selects the two-level predictor family of the paper's sweep.
type Kind int

const (
	// KindPAs is the per-address-history two-level predictor.
	KindPAs Kind = iota
	// KindGAs is the global-history two-level predictor.
	KindGAs
	// NumKinds counts the families swept.
	NumKinds
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case KindPAs:
		return "pas"
	case KindGAs:
		return "gas"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NumHistories is the number of history lengths swept (0..MaxHistory).
const NumHistories = bpred.MaxHistory + 1

// Config controls a run. Only Scale and HardDistanceWindow change
// results; every other field shapes memory, scheduling or reuse and is
// result-invisible (TestSuiteMatchesOracle).
type Config struct {
	// Scale multiplies every input's dynamic branch target; 1.0 is the
	// registry default (the paper's Table 1 counts divided by 1000).
	Scale float64
	// Workers is the worker count of the scheduler a run builds for
	// itself when Sched is nil; 0 means GOMAXPROCS.
	Workers int
	// HardDistanceWindow is the number of Figure 15 distance bins; the
	// last bin is open ("8+"). 0 means 8.
	HardDistanceWindow int
	// ChunkEvents sets the recorded trace's chunk granularity in events;
	// 0 means trace.DefaultChunkEvents. Every sweep task advances one
	// bank slot over one chunk, so this is also the task grain.
	ChunkEvents int
	// Profiles, when non-nil, caches each input's classified pass-1
	// result (profiles, classes, Exec, hard distances, attribution
	// column — everything except Miss) keyed like Cache. A hit skips the
	// profiling replay entirely, not just the generator run, so a second
	// experiment context performs zero pass-1 work.
	Profiles *ProfileCache
	// Cache, when non-nil, is consulted before pass 1: a recording with
	// a matching (name, scale, chunk) key replays into the profiler
	// instead of running the generator, and fresh recordings are
	// published for later runs and other experiment contexts.
	Cache *trace.Cache
	// MemBudget, when > 0, streams pass 1 through a bounded window
	// instead of retaining the whole recording: events are written to a
	// BTR3 spill file as they are generated (the trace cache's spill
	// directory when one is configured, otherwise an anonymous temp
	// file) and at most about MemBudget bytes of leading chunk columns
	// stay resident; replays page the remainder back in. Peak recording
	// memory becomes O(MemBudget), not O(trace). 0 keeps recordings
	// fully resident, the default.
	MemBudget int64
	// SnapshotRanges splits every bank slot's chunk axis into this many
	// checkpointed ranges that sweep concurrently: a predict-free warmup
	// chain per slot snapshots the predictor at each range boundary
	// (flat byte slices, accounted in MemStats), so one input's sweep
	// runs as numBankSlots × SnapshotRanges chains instead of 34. 0 or 1
	// is the single-range sweep, the default: the warmup replays all but
	// the last range twice, so checkpointing only wins when cores
	// outnumber slots.
	SnapshotRanges int
	// Sched, when non-nil, is a long-lived shared scheduler the suite
	// run submits onto as one completion-tracked task group instead of
	// building (and stopping) a private scheduler: concurrent RunSuite
	// calls — brserve sessions — interleave their task grids over one
	// worker pool, steal-balancing across requests. The scheduler is
	// left running for the next caller, and Workers is ignored in
	// favour of its worker count.
	Sched *sched.Scheduler
	// DecodedBudget bounds the decoded-chunk pool the sweep checks
	// chunks out of: 0 retains every decoded column for the duration of
	// the input's sweep; > 0 is a byte budget plus a transit band of a
	// few chunks (see trace.DecodedPool) — checked-out chunks are pinned,
	// LRU columns beyond budget + band are dropped and re-decoded on the
	// next visit. A budgeted sweep convoys its chains (breadth-first
	// continuations), so the 34 slots pass each chunk while it is still
	// in the band. Negative values are invalid: the run panics.
	DecodedBudget int64
	// ReadAhead is ignored.
	//
	// Deprecated: the decoded pool's background prefetcher is gone and a
	// budgeted sweep always convoys. The field stays so callers that
	// still set it keep compiling.
	ReadAhead int
}

// cacheKey is the recording's identity for Config.Cache and
// Config.Profiles lookups, in normalised form so configs that spell the
// defaults differently (Scale 0 vs 1, ChunkEvents 0 vs the default)
// share entries in both caches. The spec fingerprint keeps same-named
// custom specs (different target, seed or generator parameters) from
// aliasing each other's recordings.
func (c Config) cacheKey(spec workload.Spec) trace.CacheKey {
	return trace.CacheKey{
		Name:        spec.Name(),
		Fingerprint: spec.Fingerprint(),
		Scale:       c.Scale,
		ChunkEvents: c.ChunkEvents,
	}.Normalised()
}

func (c Config) window() int {
	if c.HardDistanceWindow <= 0 {
		return 8
	}
	return c.HardDistanceWindow
}

// JointCounts is an 11x11 matrix of per-joint-class event counts.
type JointCounts [core.NumClasses][core.NumClasses]int64

// Add accumulates other into j.
func (j *JointCounts) Add(other *JointCounts) {
	for a := range j {
		for b := range j[a] {
			j[a][b] += other[a][b]
		}
	}
}

// Total sums all cells.
func (j *JointCounts) Total() int64 {
	var sum int64
	for a := range j {
		for b := range j[a] {
			sum += j[a][b]
		}
	}
	return sum
}

// TakenMarginal sums each taken-class row.
func (j *JointCounts) TakenMarginal() [core.NumClasses]int64 {
	var out [core.NumClasses]int64
	for t := range j {
		for tr := range j[t] {
			out[t] += j[t][tr]
		}
	}
	return out
}

// TransitionMarginal sums each transition-class column.
func (j *JointCounts) TransitionMarginal() [core.NumClasses]int64 {
	var out [core.NumClasses]int64
	for t := range j {
		for tr := range j[t] {
			out[tr] += j[t][tr]
		}
	}
	return out
}

// InputResult holds everything measured for one benchmark input.
type InputResult struct {
	Spec   workload.Spec
	Events int64
	Sites  int

	// Profiles is the per-branch profile from pass 1.
	Profiles map[uint64]*core.Profile
	// Classes is the joint classification derived from Profiles.
	Classes core.ClassMap

	// Exec attributes every dynamic execution to its branch's joint class.
	Exec JointCounts
	// Miss[kind][k] attributes mispredictions of predictor kind with
	// history length k to joint classes.
	Miss [NumKinds][NumHistories]JointCounts

	// HardDistances histograms the dynamic-branch distance between
	// consecutive executions of hard (5/5) branches: bins 1..window,
	// last bin open (Figure 15). Bin 0 is unused.
	HardDistances *stats.Histogram

	// Recorded is the input's event stream as captured during pass 1 —
	// a handle that may be memory-resident, spill-backed (under
	// Config.MemBudget), or both; downstream analyses (ablations,
	// confidence studies) replay it instead of re-running the
	// generator.
	Recorded *trace.Handle

	// Mem reports the input's memory-shape counters (recording
	// footprint, page-ins, decoded-pool traffic, snapshots).
	Mem MemStats
}

// MemStats describes how an input's trace data moved through the
// bounded-memory pipeline. Counters are cumulative over the input's
// run; the peaks are high-water marks.
type MemStats struct {
	// RecordedBytes is the recording's full encoded footprint (what
	// retaining it all would cost).
	RecordedBytes int64
	// ResidentPeak is the high-water mark of the recording's resident
	// chunk columns (== RecordedBytes when fully retained).
	ResidentPeak int64
	// PageIns counts chunks re-read from the spill file.
	PageIns int64
	// DecodedHits / DecodedRedecodes / DecodedEvicted / DecodedPeak are
	// the sweep's decoded-chunk pool counters (see
	// trace.DecodedPoolStats).
	DecodedHits      int64
	DecodedRedecodes int64
	DecodedEvicted   int64
	DecodedPeak      int64
	// PrefetchHits and PrefetchWasted are always zero.
	//
	// Deprecated: they counted the decoded pool's prefetcher, which is
	// gone. They stay so readers of the old counters keep compiling.
	PrefetchHits   int64
	PrefetchWasted int64
	// SnapshotCount / SnapshotBytes / SnapshotPeak describe the
	// checkpointed sweep's predictor snapshots (Config.SnapshotRanges):
	// how many were taken, their cumulative size, and the high-water
	// mark of snapshot bytes live at once (each snapshot dies when its
	// range restores it). Zero with a single range per slot.
	SnapshotCount int64
	SnapshotBytes int64
	SnapshotPeak  int64
}

// Add accumulates other into m: counters sum, peaks take the max (the
// suite-level peak is per-input, inputs being concurrent).
func (m *MemStats) Add(other *MemStats) {
	m.RecordedBytes += other.RecordedBytes
	m.PageIns += other.PageIns
	m.DecodedHits += other.DecodedHits
	m.DecodedRedecodes += other.DecodedRedecodes
	m.DecodedEvicted += other.DecodedEvicted
	m.SnapshotCount += other.SnapshotCount
	m.SnapshotBytes += other.SnapshotBytes
	if other.ResidentPeak > m.ResidentPeak {
		m.ResidentPeak = other.ResidentPeak
	}
	if other.DecodedPeak > m.DecodedPeak {
		m.DecodedPeak = other.DecodedPeak
	}
	if other.SnapshotPeak > m.SnapshotPeak {
		m.SnapshotPeak = other.SnapshotPeak
	}
}

// ProfileInput runs pass 1 only: profile and classify one input.
func ProfileInput(spec workload.Spec, scale float64) (*core.Profiler, core.ClassMap) {
	profiler := core.NewProfiler()
	spec.Run(profiler, scale)
	return profiler, core.Classify(profiler.Profiles())
}

// RunInput runs the full two-pass pipeline for one input: a one-spec
// RunSuite. A workload that fails (a panicking generator) panics here
// with its InputError, since there is no suite to drop it from.
func RunInput(spec workload.Spec, cfg Config) *InputResult {
	suite := RunSuite([]workload.Spec{spec}, cfg)
	if len(suite.Dropped) > 0 {
		panic(suite.Dropped[0])
	}
	return suite.Inputs[0]
}

// profileRecorded runs pass 1 — profile and record in one generator run
// — consulting cfg.Cache first: on a hit the cached recording replays
// into the profiler and the generator never runs. Either way the
// returned handle is the input's exact event stream. Under
// cfg.MemBudget the recording streams straight to a spill file with a
// bounded resident prefix instead of being retained whole.
func profileRecorded(spec workload.Spec, cfg Config) (*core.Profiler, *trace.Handle) {
	profiler := core.NewProfiler()
	if cfg.Cache != nil {
		if h, ok := cfg.Cache.GetHandle(cfg.cacheKey(spec)); ok {
			h.Replay(profiler)
			return profiler, h
		}
	}
	if cfg.MemBudget > 0 {
		if h, ok := streamRecord(spec, cfg, profiler); ok {
			return profiler, h
		}
		// The spill file could not be created or sealed: fall back to the
		// fully resident path with a fresh profiler (the failed attempt
		// may have fed it a partial stream).
		profiler = core.NewProfiler()
	}
	recorder := trace.NewChunkRecorder(cfg.ChunkEvents)
	spec.Run(trace.Tee(profiler, recorder), cfg.Scale)
	h := trace.NewResidentHandle(recorder.Trace())
	if cfg.Cache != nil {
		// A failed spill loses persistence only — the recording is
		// still cached in memory — and is counted in the cache stats
		// (CacheStats.SpillFailures) for the CLIs to report.
		_ = cfg.Cache.PutHandle(cfg.cacheKey(spec), h)
	}
	return profiler, h
}

// streamRecord is the bounded-window pass 1: the generator's stream is
// teed into the profiler and a StreamRecorder writing BTR3 directly —
// to the cache's spill path when one exists (so later processes probe
// straight into it), else an anonymous temp file. ok is false when the
// spill backing could not be set up; the caller falls back to
// retaining.
func streamRecord(spec workload.Spec, cfg Config, profiler *core.Profiler) (*trace.Handle, bool) {
	path := ""
	if cfg.Cache != nil {
		path = cfg.Cache.SpillPathFor(cfg.cacheKey(spec))
	}
	sr, err := trace.NewStreamRecorder(path, cfg.ChunkEvents, cfg.MemBudget)
	if err != nil {
		return nil, false
	}
	sealed := false
	defer func() {
		if !sealed {
			sr.Discard() // a panicking generator must not leak the temp file
		}
	}()
	spec.Run(trace.Tee(profiler, sr), cfg.Scale)
	h, err := sr.Seal()
	sealed = true
	if err != nil {
		return nil, false
	}
	if cfg.Cache != nil {
		_ = cfg.Cache.PutHandle(cfg.cacheKey(spec), h)
	}
	return h, true
}

// hardIdx is the 5/5 joint class ("hard" branches), flattened the way
// classIdx stores classes.
const hardIdx = 5*core.NumClasses + 5

// passOne profiles, records and classifies one input: the result shell
// with Exec, distances and the attribution column still empty — those
// belong to the attribution grid (attribGrid).
func passOne(spec workload.Spec, cfg Config) *InputResult {
	profiler, recorded := profileRecorded(spec, cfg)
	return &InputResult{
		Spec:          spec,
		Events:        profiler.Events(),
		Sites:         profiler.Sites(),
		Profiles:      profiler.Profiles(),
		Classes:       core.Classify(profiler.Profiles()),
		HardDistances: stats.NewHistogram(cfg.window() + 1),
		Recorded:      recorded,
	}
}

// profileCached serves the profile-cache fast path: on a hit the cached
// shell is copied (Miss starts zero in the template, so the copy is
// sweep-ready), the recording it was derived from comes back from
// cfg.Cache — the recording's lifetime stays under the trace cache's
// LRU budget, not pinned by profile entries — and no generator,
// profiler or attribution work runs at all. If the recording was
// evicted without a spill path the hit is unusable (the sweep needs the
// stream) and the caller falls through to a full recompute.
func profileCached(spec workload.Spec, cfg Config) (*InputResult, []uint8, bool) {
	if cfg.Profiles == nil || cfg.Cache == nil {
		return nil, nil, false
	}
	res, classIdx, ok := cfg.Profiles.get(cfg.cacheKey(spec), cfg.window())
	if !ok {
		return nil, nil, false
	}
	h, ok := cfg.Cache.GetHandle(cfg.cacheKey(spec))
	if !ok {
		return nil, nil, false
	}
	res.Recorded = h
	return res, classIdx, true
}

// missCell is one bank slot's flat class-attributed miss counters.
type missCell = [core.NumClasses * core.NumClasses]int64

// addCell accumulates src into dst; int64 sums make every reduction
// order bit-identical.
func addCell(dst, src *missCell) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// numBankSlots counts the (kind, k) configurations of the paper's sweep.
const numBankSlots = int(NumKinds) * NumHistories

// bankSlotPredictor builds the predictor for flat bank slot i — the one
// place the slot-index ↔ (kind, k) mapping is realised.
func bankSlotPredictor(i int) slotPredictor {
	kind, k := Kind(i/NumHistories), i%NumHistories
	switch kind {
	case KindPAs:
		return bpred.NewPAs(k)
	case KindGAs:
		return bpred.NewGAs(k)
	default:
		panic(fmt.Sprintf("sim: bank slot %d has no predictor kind", i))
	}
}

// foldMisses copies the flat per-slot counters into res.Miss.
func foldMisses(res *InputResult, misses []missCell) {
	for i := 0; i < numBankSlots; i++ {
		kind, k := Kind(i/NumHistories), i%NumHistories
		for t := 0; t < core.NumClasses; t++ {
			for tr := 0; tr < core.NumClasses; tr++ {
				res.Miss[kind][k][t][tr] = misses[i][t*core.NumClasses+tr]
			}
		}
	}
}

// classLookup resolves branch PCs to flattened joint-class indices,
// either through a direct-indexed table (dense != nil) or the class map.
type classLookup struct {
	dense []uint8
	minPC uint64
}

// classOf resolves one PC, falling back to the class map when the
// dense table was not built.
func (l *classLookup) classOf(pc uint64, classes core.ClassMap) uint8 {
	if l.dense != nil {
		return l.dense[(pc-l.minPC)>>2]
	}
	jc := classes[pc]
	return uint8(int(jc.Taken)*core.NumClasses + int(jc.Transition))
}

// denseClasses flattens a class map into a direct-indexed table when its
// PC range is compact (instrumented workloads always are: PCs are
// base + site<<2 with small site IDs). A sparse map — e.g. a stored
// trace with arbitrary addresses — keeps map lookups.
func denseClasses(classes core.ClassMap) classLookup {
	if len(classes) == 0 {
		return classLookup{}
	}
	minPC, maxPC := ^uint64(0), uint64(0)
	aligned := true
	for pc := range classes {
		if pc < minPC {
			minPC = pc
		}
		if pc > maxPC {
			maxPC = pc
		}
		aligned = aligned && pc&3 == 0
	}
	// Unaligned PCs would alias under the >>2 index; only word-aligned
	// streams (everything workload.T emits) take the dense path.
	if !aligned {
		return classLookup{}
	}
	span := (maxPC-minPC)>>2 + 1
	// Cap the table at 4 MiB of entries; beyond that the map wins.
	if span > 1<<22 {
		return classLookup{}
	}
	dense := make([]uint8, span)
	for pc, jc := range classes {
		dense[(pc-minPC)>>2] = uint8(int(jc.Taken)*core.NumClasses + int(jc.Transition))
	}
	return classLookup{dense: dense, minPC: minPC}
}

// chunkSweeper is the batch protocol the bank's predictors provide: one
// call advances the predictor over a whole decoded chunk and reports
// mispredictions as a bitmap, keeping the per-event loop concrete inside
// the predictor (see bpred.PAs.SweepChunk).
type chunkSweeper interface {
	SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
}

// sweepDecodedChunk advances one bank slot over one decoded chunk,
// attributing mispredictions into cell — the sweep grid's inner loop.
// wrong is the caller's scratch bitmap, at least (n+63)/64 words.
//
// The popcount pre-scan totals the chunk's mispredictions first: an
// all-correct chunk — the common case for easy classes at high k —
// skips attribution entirely, and otherwise the running count stops the
// word walk as soon as the last miss has been attributed, bulk-skipping
// the zero tail.
func sweepDecodedChunk(p chunkSweeper, d *trace.DecodedChunk, cls []uint8, cell *missCell, wrong []uint64) {
	words := (d.N + 63) / 64
	for w := range wrong[:words] {
		wrong[w] = 0
	}
	p.SweepChunk(d.PCs, d.Dirs, d.N, wrong)
	total := 0
	for w := 0; w < words; w++ {
		total += mathbits.OnesCount64(wrong[w])
	}
	if total == 0 {
		return
	}
	for w := 0; total > 0; w++ {
		bits := wrong[w]
		if bits == 0 {
			continue
		}
		total -= mathbits.OnesCount64(bits)
		for ; bits != 0; bits &= bits - 1 {
			cell[cls[w*64+mathbits.TrailingZeros64(bits)]]++
		}
	}
}
