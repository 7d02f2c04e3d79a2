package bpred

import (
	"btr/internal/core"
)

// DynamicClassHybrid implements the paper's §6 future-work proposal:
// "It may also be possible to perform classification based on transition
// rate using some form of dynamic counter." Instead of a profiling pass,
// a per-branch monitor table accumulates taken and transition counts over
// a sliding window of executions; once the window fills, the branch is
// classified with the same (taken, transition) policy the static hybrid
// uses, and re-classified every window thereafter so phase changes are
// tracked.
//
// Branches route to the long-history component until first classified
// (the safe default: it handles everything, just with more warmup and
// interference).
type DynamicClassHybrid struct {
	window  uint16
	entries []dynEntry
	mask    uint64
	biasTbl Predictor
	short   Predictor
	long    Predictor
	// steps holds each advice's component as a fused step (unclassified
	// branches use the long-history component's).
	steps [core.AdviseNonPredictive + 1]PredictUpdater
}

type dynEntry struct {
	execs  uint16
	taken  uint16
	trans  uint16
	last   bool
	primed bool

	classified bool
	advice     core.Advice
}

// NewDynamicClassHybrid builds the dynamic hybrid with 2^tableBits monitor
// entries and the given classification window (executions per decision;
// 64 is a good default). Nil components get the same defaults as
// ClassHybrid.
func NewDynamicClassHybrid(tableBits int, window uint16, comp HybridComponents) *DynamicClassHybrid {
	if window == 0 {
		window = 64
	}
	comp = comp.withDefaults()
	d := &DynamicClassHybrid{
		window:  window,
		entries: make([]dynEntry, 1<<uint(tableBits)),
		mask:    (1 << uint(tableBits)) - 1,
		biasTbl: comp.BiasTable,
		short:   comp.Short,
		long:    comp.Long,
	}
	for a := range d.steps {
		d.steps[a] = Fused(d.component(&dynEntry{classified: true, advice: core.Advice(a)}))
	}
	return d
}

// Name implements Predictor.
func (d *DynamicClassHybrid) Name() string { return "DynamicClassHybrid" }

func (d *DynamicClassHybrid) entry(pc uint64) *dynEntry {
	return &d.entries[pcIndex(pc)&d.mask]
}

func (d *DynamicClassHybrid) component(e *dynEntry) Predictor {
	if !e.classified {
		return d.long
	}
	switch e.advice {
	case core.AdviseStatic:
		return d.biasTbl
	case core.AdviseShortLocal:
		return d.short
	default:
		return d.long
	}
}

// Predict implements Predictor.
func (d *DynamicClassHybrid) Predict(pc uint64) bool {
	return d.component(d.entry(pc)).Predict(pc)
}

// Update implements Predictor: trains the owning component, accumulates
// the monitor counters, and (re)classifies at window boundaries.
func (d *DynamicClassHybrid) Update(pc uint64, taken bool) {
	e := d.entry(pc)
	d.component(e).Update(pc, taken)
	d.monitor(e, taken)
}

// PredictUpdate implements PredictUpdater: one monitor-entry lookup and
// one fused component step, then the same monitor update as Update.
func (d *DynamicClassHybrid) PredictUpdate(pc uint64, taken bool) bool {
	e := d.entry(pc)
	step := d.steps[core.AdviseLongHistory]
	if e.classified {
		step = d.steps[e.advice]
	}
	predicted := step.PredictUpdate(pc, taken)
	d.monitor(e, taken)
	return predicted
}

// monitor accumulates one execution into the branch's window counters
// and (re)classifies it at the window boundary.
func (d *DynamicClassHybrid) monitor(e *dynEntry, taken bool) {
	e.execs++
	if taken {
		e.taken++
	}
	if e.primed && taken != e.last {
		e.trans++
	}
	e.last = taken
	e.primed = true

	if e.execs >= d.window {
		takenRate := float64(e.taken) / float64(e.execs)
		transRate := float64(e.trans) / float64(e.execs-1)
		jc := core.JointClass{
			Taken:      core.ClassOf(takenRate),
			Transition: core.ClassOf(transRate),
		}
		e.advice = core.Advise(jc)
		e.classified = true
		e.execs, e.taken, e.trans = 0, 0, 0
		e.primed = false
	}
}

// SizeBits implements Predictor: component state plus the monitor table
// (three window counters, last/primed/classified flags, 2-bit advice per
// entry).
func (d *DynamicClassHybrid) SizeBits() int64 {
	perEntry := int64(3*16 + 3 + 2)
	return d.biasTbl.SizeBits() + d.short.SizeBits() + d.long.SizeBits() +
		int64(len(d.entries))*perEntry
}

// dynEntrySnapshotBytes is the encoded size of one monitor entry:
// three uint16 window counters plus four single-byte flags/advice.
const dynEntrySnapshotBytes = 10

// SnapshotBytes implements Snapshotter: the monitor table plus the
// three dynamic components (all must be Snapshotters).
func (d *DynamicClassHybrid) SnapshotBytes() int64 {
	return int64(len(d.entries))*dynEntrySnapshotBytes +
		asSnapshotter(d.biasTbl, "DynamicClassHybrid").SnapshotBytes() +
		asSnapshotter(d.short, "DynamicClassHybrid").SnapshotBytes() +
		asSnapshotter(d.long, "DynamicClassHybrid").SnapshotBytes()
}

// SnapshotTo implements Snapshotter.
func (d *DynamicClassHybrid) SnapshotTo(dst []byte) int {
	n := 0
	for i := range d.entries {
		e := &d.entries[i]
		dst[n] = byte(e.execs)
		dst[n+1] = byte(e.execs >> 8)
		dst[n+2] = byte(e.taken)
		dst[n+3] = byte(e.taken >> 8)
		dst[n+4] = byte(e.trans)
		dst[n+5] = byte(e.trans >> 8)
		n += 6
		n += putBool(dst[n:], e.last)
		n += putBool(dst[n:], e.primed)
		n += putBool(dst[n:], e.classified)
		dst[n] = byte(e.advice)
		n++
	}
	n += asSnapshotter(d.biasTbl, "DynamicClassHybrid").SnapshotTo(dst[n:])
	n += asSnapshotter(d.short, "DynamicClassHybrid").SnapshotTo(dst[n:])
	n += asSnapshotter(d.long, "DynamicClassHybrid").SnapshotTo(dst[n:])
	return n
}

// RestoreFrom implements Snapshotter.
func (d *DynamicClassHybrid) RestoreFrom(src []byte) int {
	n := 0
	for i := range d.entries {
		e := &d.entries[i]
		e.execs = uint16(src[n]) | uint16(src[n+1])<<8
		e.taken = uint16(src[n+2]) | uint16(src[n+3])<<8
		e.trans = uint16(src[n+4]) | uint16(src[n+5])<<8
		n += 6
		n += getBool(src[n:], &e.last)
		n += getBool(src[n:], &e.primed)
		n += getBool(src[n:], &e.classified)
		e.advice = core.Advice(src[n])
		n++
	}
	n += asSnapshotter(d.biasTbl, "DynamicClassHybrid").RestoreFrom(src[n:])
	n += asSnapshotter(d.short, "DynamicClassHybrid").RestoreFrom(src[n:])
	n += asSnapshotter(d.long, "DynamicClassHybrid").RestoreFrom(src[n:])
	return n
}

// AdviceFor exposes the current dynamic classification of a branch, for
// inspection ("unclassified" during the first window).
func (d *DynamicClassHybrid) AdviceFor(pc uint64) string {
	e := d.entry(pc)
	if !e.classified {
		return "unclassified"
	}
	return e.advice.String()
}
