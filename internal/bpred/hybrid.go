package bpred

import (
	"btr/internal/core"
)

// ClassHybrid is a profile-classification-guided hybrid predictor in the
// style of §5.4: every static branch is steered to a component according
// to its (taken, transition) class from a profiling run:
//
//   - taken classes 0/10 (always one direction): a profiled static
//     prediction, costing no predictor state at all;
//   - other low-transition branches (transition classes 0-1, e.g. long
//     runs of taken then not-taken): a small counter table — the paper's
//     observation that "such a branch can be well predicted using only a
//     one-bit counter";
//   - alternating branches (transition classes 9-10): a short per-address
//     history, which is near perfect where zero history is pathological;
//   - everything else: the longest-affordable-history component.
//
// Keeping the easy branches out of the pattern history tables is also what
// removes interference. Branches never seen during profiling fall back to
// the long-history component.
type ClassHybrid struct {
	name    string
	classes core.ClassMap
	// parts holds the components by route (routeStatic .. routeLong);
	// steps holds the same components' fused steps.
	parts [numRoutes]Predictor
	steps [numRoutes]PredictUpdater
	// takenOnly restricts classification to taken rate (the Chang et al.
	// baseline): only taken classes 0/10 are diverted, everything else is
	// long-history.
	takenOnly bool
}

// The components a ClassHybrid steers between, indexing parts and steps.
const (
	routeStatic = iota
	routeBias
	routeShort
	routeLong
	numRoutes
)

// HybridComponents selects the dynamic components of a ClassHybrid.
// Nil fields get sensible defaults.
type HybridComponents struct {
	// BiasTable handles low-transition, non-extreme-bias branches.
	// Default: a 2^12-counter bimodal table.
	BiasTable Predictor
	// Short handles the alternating classes. Default: PAs with the
	// default policy's short history.
	Short Predictor
	// Long handles everything else. Default: gshare sized to the paper's
	// budget with the policy's long history.
	Long Predictor
}

func (c HybridComponents) withDefaults() HybridComponents {
	if c.BiasTable == nil {
		c.BiasTable = NewBimodal(12)
	}
	if c.Short == nil {
		c.Short = NewPAs(core.DefaultPolicy.ShortHistoryMax)
	}
	if c.Long == nil {
		c.Long = NewGShare(GAsPHTBits, core.DefaultPolicy.LongHistory)
	}
	return c
}

// NewTransitionHybrid builds the paper's proposed hybrid from a profiling
// pass: steering derives from the joint (taken, transition) class, and
// each statically-predicted branch uses its profiled majority direction.
func NewTransitionHybrid(classes core.ClassMap, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return newClassHybrid("TransitionHybrid", classes, profiles, comp, false)
}

// NewTakenHybrid builds the Chang-style hybrid that classifies by taken
// rate only: taken classes 0 and 10 go static, everything else goes to the
// long-history component. It is the baseline §4.2 compares against.
func NewTakenHybrid(classes core.ClassMap, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return newClassHybrid("TakenHybrid", classes, profiles, comp, true)
}

func newClassHybrid(name string, classes core.ClassMap, profiles map[uint64]*core.Profile, comp HybridComponents, takenOnly bool) *ClassHybrid {
	bias := make(map[uint64]bool, len(classes))
	for pc := range classes {
		if p := profiles[pc]; p != nil {
			bias[pc] = p.TakenRate() >= 0.5
		}
	}
	comp = comp.withDefaults()
	h := &ClassHybrid{
		name:      name,
		classes:   classes,
		parts:     [numRoutes]Predictor{NewStaticBias(bias), comp.BiasTable, comp.Short, comp.Long},
		takenOnly: takenOnly,
	}
	for i, p := range h.parts {
		h.steps[i] = Fused(p)
	}
	return h
}

// Name implements Predictor.
func (h *ClassHybrid) Name() string { return h.name }

// route resolves the component a branch is steered to, with one
// class-map lookup.
func (h *ClassHybrid) route(pc uint64) int {
	jc, ok := h.classes[pc]
	if !ok {
		return routeLong // unprofiled branch: no classification to act on
	}
	extremeBias := jc.Taken == 0 || jc.Taken == 10
	if h.takenOnly {
		if extremeBias {
			return routeStatic
		}
		return routeLong
	}
	switch {
	case extremeBias && jc.Transition <= 1:
		return routeStatic
	case jc.Transition <= 1:
		return routeBias
	case jc.Transition >= 9:
		return routeShort
	default:
		return routeLong
	}
}

// Predict implements Predictor.
func (h *ClassHybrid) Predict(pc uint64) bool { return h.parts[h.route(pc)].Predict(pc) }

// Update implements Predictor. Only the owning component trains on the
// branch: the point of the classification is to keep easy branches out of
// the pattern history tables, freeing those resources (and removing their
// interference) for the hard branches.
func (h *ClassHybrid) Update(pc uint64, taken bool) {
	h.parts[h.route(pc)].Update(pc, taken)
}

// PredictUpdate implements PredictUpdater: the branch is routed once and
// its component takes one fused step.
func (h *ClassHybrid) PredictUpdate(pc uint64, taken bool) bool {
	return h.steps[h.route(pc)].PredictUpdate(pc, taken)
}

// SizeBits implements Predictor. Static bias hints are profile outputs
// carried in the binary, not predictor state.
func (h *ClassHybrid) SizeBits() int64 {
	return h.parts[routeBias].SizeBits() + h.parts[routeShort].SizeBits() + h.parts[routeLong].SizeBits()
}

// SnapshotBytes implements Snapshotter: the three dynamic components
// (class map and profiled bias are fixed at construction); all must be
// Snapshotters.
func (h *ClassHybrid) SnapshotBytes() int64 {
	var n int64
	for _, p := range h.parts[routeBias:] {
		n += asSnapshotter(p, "ClassHybrid").SnapshotBytes()
	}
	return n
}

// SnapshotTo implements Snapshotter.
func (h *ClassHybrid) SnapshotTo(dst []byte) int {
	n := 0
	for _, p := range h.parts[routeBias:] {
		n += asSnapshotter(p, "ClassHybrid").SnapshotTo(dst[n:])
	}
	return n
}

// RestoreFrom implements Snapshotter.
func (h *ClassHybrid) RestoreFrom(src []byte) int {
	n := 0
	for _, p := range h.parts[routeBias:] {
		n += asSnapshotter(p, "ClassHybrid").RestoreFrom(src[n:])
	}
	return n
}

// ComponentFor exposes which component a branch is steered to ("static",
// "bias-table", "short-local", "long-history"), for reporting.
func (h *ClassHybrid) ComponentFor(pc uint64) string {
	return [numRoutes]string{"static", "bias-table", "short-local", "long-history"}[h.route(pc)]
}
