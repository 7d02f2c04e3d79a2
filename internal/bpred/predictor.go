package bpred

import "btr/internal/trace"

// Predictor is a dynamic conditional branch predictor. The simulation
// protocol is predict-then-update for every dynamic branch, in program
// order, exactly as sim-bpred does:
//
//	predicted := p.Predict(pc)
//	p.Update(pc, actual)
//
// Implementations are not safe for concurrent use; the sweep harness runs
// one predictor per goroutine.
type Predictor interface {
	// Name identifies the configuration, e.g. "PAs(k=8)".
	Name() string
	// Predict returns the predicted direction for the branch at pc,
	// without modifying any state.
	Predict(pc uint64) bool
	// Update trains the predictor with the branch's actual outcome.
	Update(pc uint64, taken bool)
	// SizeBits returns the hardware budget the configuration consumes,
	// in bits of predictor state (tables and history registers).
	SizeBits() int64
}

// PredictUpdater is the optional fused fast path: one call performs the
// predict-then-update protocol and returns the pre-update prediction,
// letting implementations compute each table index once instead of twice.
// Fused and separate calls must be behaviourally identical; the sweep
// harness and Step rely on that equivalence.
type PredictUpdater interface {
	// PredictUpdate returns Predict(pc), then applies Update(pc, taken).
	PredictUpdate(pc uint64, taken bool) bool
}

// Step performs one predict-then-update step, using the fused path when
// the predictor provides one.
func Step(p Predictor, pc uint64, taken bool) bool {
	if pu, ok := p.(PredictUpdater); ok {
		return pu.PredictUpdate(pc, taken)
	}
	predicted := p.Predict(pc)
	p.Update(pc, taken)
	return predicted
}

// Fused returns p's fused step, or an adapter performing the separate
// Predict-then-Update pair when p has none. Composite predictors resolve
// their components through it once at construction, so their own
// PredictUpdate pays no per-event type assertion.
func Fused(p Predictor) PredictUpdater {
	if pu, ok := p.(PredictUpdater); ok {
		return pu
	}
	return separateStep{p}
}

// separateStep adapts a predictor without a fused path to PredictUpdater.
type separateStep struct{ p Predictor }

func (s separateStep) PredictUpdate(pc uint64, taken bool) bool {
	predicted := s.p.Predict(pc)
	s.p.Update(pc, taken)
	return predicted
}

// Result summarises a predictor's accuracy over a stream.
type Result struct {
	Name   string
	Events int64
	Misses int64
}

// MissRate returns Misses/Events, or 0 for an empty run.
func (r Result) MissRate() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Events)
}

// Run drives a predictor over a trace source and returns its Result.
func Run(p Predictor, src trace.Source) (Result, error) {
	res := Result{Name: p.Name()}
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return res, err
		}
		if !ok {
			return res, nil
		}
		if Step(p, ev.PC, ev.Taken) != ev.Taken {
			res.Misses++
		}
		res.Events++
	}
}

// Sink adapts a Predictor to trace.Sink, accumulating a Result and
// optionally reporting each (pc, predicted, taken) to observe. It is the
// building block for class-attributed simulation and confidence studies.
type Sink struct {
	P       Predictor
	Res     Result
	Observe func(pc uint64, predicted, taken bool)
}

// NewSink wraps p.
func NewSink(p Predictor) *Sink {
	return &Sink{P: p, Res: Result{Name: p.Name()}}
}

var _ trace.Sink = (*Sink)(nil)

// Branch performs one predict-update step.
func (s *Sink) Branch(pc uint64, taken bool) {
	predicted := Step(s.P, pc, taken)
	if predicted != taken {
		s.Res.Misses++
	}
	s.Res.Events++
	if s.Observe != nil {
		s.Observe(pc, predicted, taken)
	}
}
