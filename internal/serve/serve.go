// Package serve turns the classifier into a long-running multi-tenant
// experiment service: an HTTP/JSON front end that accepts experiment
// requests (suite spec names, predictor-bank experiment ids, scale,
// memory/decoded budgets), runs each request as a cheap session Context
// over one process-wide substrate — a shared work-stealing scheduler,
// recorded-trace cache and pass-1 profile cache — and streams the
// rendered artifacts back as NDJSON, bit-identical to what brexp writes
// for the same configuration.
//
// Admission control keeps the substrate honest under load: at most
// MaxInFlight requests run concurrently, at most MaxQueue more wait for
// a slot, and everything past that is rejected immediately with 429 —
// as are requests whose scale or byte budgets exceed the server's
// per-request caps. /metrics exposes the shared substrate's counters
// (scheduler steals/parks/queue depth, trace- and profile-cache
// traffic, decoded-pool hits/redecodes summed across requests) plus
// the admission tallies; /healthz flips to 503 once a drain begins.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/workload"
)

// Config sizes the server. The zero value is usable: defaults are
// filled by New.
type Config struct {
	// Workers sizes the shared scheduler (0 = GOMAXPROCS). Ignored when
	// Sched is set.
	Workers int
	// MaxInFlight bounds concurrently running requests (0 = 4).
	MaxInFlight int
	// MaxQueue bounds requests admitted but waiting for an in-flight
	// slot (0 = 16, < 0 = no waiting: reject the moment slots are full).
	MaxQueue int
	// MaxScale caps a request's workload scale (0 = 8).
	MaxScale float64
	// MaxMemBudget / MaxDecodedBudget cap a request's per-request byte
	// budgets (0 = 1 GiB each). Requests asking for more are rejected
	// with 429 rather than silently clamped.
	MaxMemBudget     int64
	MaxDecodedBudget int64
	// CacheBytes bounds the shared trace cache's resident columns
	// (0 = trace.DefaultCacheBytes). Ignored when Shared is set.
	CacheBytes int64
	// CacheDir, when non-empty, makes the shared trace cache persistent
	// (BTR3 spill files). Ignored when Shared is set.
	CacheDir string
	// DefaultDeadline, when > 0, bounds every request that does not set
	// its own deadline_ms: a request still running when it expires is
	// canceled (its group unwinds cooperatively) and its stream ends
	// with a "canceled" record. 0 means requests run unbounded.
	DefaultDeadline time.Duration

	// Shared and Sched, when non-nil, are adopted instead of built —
	// tests and embedders inject their own substrate. New never closes
	// an adopted scheduler.
	Shared *experiments.Shared
	Sched  *sched.Scheduler
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 4
	}
	return c.MaxInFlight
}

func (c Config) maxQueue() int {
	if c.MaxQueue == 0 {
		return 16
	}
	if c.MaxQueue < 0 {
		return 0
	}
	return c.MaxQueue
}

func (c Config) maxScale() float64 {
	if c.MaxScale <= 0 {
		return 8
	}
	return c.MaxScale
}

func (c Config) maxMemBudget() int64 {
	if c.MaxMemBudget <= 0 {
		return 1 << 30
	}
	return c.MaxMemBudget
}

func (c Config) maxDecodedBudget() int64 {
	if c.MaxDecodedBudget <= 0 {
		return 1 << 30
	}
	return c.MaxDecodedBudget
}

// maxWindow caps a request's Figure 15 bin count: the window sizes a
// histogram per input and per benchmark, so it must not be the client's
// to choose without bound.
const maxWindow = 1024

// Request is one experiment request. Every field is optional: the zero
// request renders every experiment over the full Table 1 suite at
// scale 1 with default budgets.
type Request struct {
	// Experiments lists artifact ids ("T1", "F13", ...); empty = all.
	Experiments []string `json:"experiments,omitempty"`
	// Specs restricts the suite to the named "bench/input" workloads;
	// empty = the full Table 1 suite.
	Specs []string `json:"specs,omitempty"`
	// Scale is the workload scale (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// MemBudget / DecodedBudget are the per-request byte budgets
	// (sim.Config.MemBudget / DecodedBudget).
	MemBudget     int64 `json:"membudget,omitempty"`
	DecodedBudget int64 `json:"decodedbudget,omitempty"`
	// SnapshotRanges tunes the sweep exactly like the brexp flag of the
	// same name (result-invisible); Window is the Figure 15 bin count
	// (sim.Config.HardDistanceWindow), 0 = 8, at most 1024.
	SnapshotRanges int `json:"snapshotranges,omitempty"`
	Window         int `json:"window,omitempty"`
	// ReadAhead is ignored.
	//
	// Deprecated: the decoded pool's prefetcher is gone and a budgeted
	// sweep always convoys. The field stays so bodies and callers that
	// still set it keep working.
	ReadAhead int `json:"readahead,omitempty"`
	// DeadlineMS bounds this request's wall-clock time in milliseconds;
	// past it the run is canceled and the stream ends with a "canceled"
	// record. 0 inherits the server's default deadline (which may be
	// none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Record is one NDJSON line of a streamed response.
type Record struct {
	// Type is "start", "experiment", "dropped", "error", "canceled" or
	// "summary". A "canceled" record is terminal: the client
	// disconnected or the request's deadline fired, the run unwound
	// cooperatively, and no experiments follow.
	Type string `json:"type"`
	// ID names the experiment of an "experiment" record.
	ID string `json:"id,omitempty"`
	// Output is the rendered artifact, byte-identical to the file brexp
	// writes for the same configuration.
	Output string `json:"output,omitempty"`
	// Spec and Error carry a "dropped" input's identity and recovered
	// cause (or the message of an "error" record).
	Spec  string `json:"spec,omitempty"`
	Error string `json:"error,omitempty"`
	// Summary fields.
	Events    int64       `json:"events,omitempty"`
	Inputs    int         `json:"inputs,omitempty"`
	Dropped   int         `json:"dropped,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms,omitempty"`
	Mem       *MemMetrics `json:"mem,omitempty"`
}

// ErrorResponse is the structured body of every non-streaming failure
// (400/429/503). Spec or ID name the offending input where one exists.
type ErrorResponse struct {
	Error string `json:"error"`
	Spec  string `json:"spec,omitempty"`
	ID    string `json:"id,omitempty"`
}

// Server is the experiment service. Build with New, mount Handler, and
// Close at shutdown.
type Server struct {
	cfg    Config
	sched  *sched.Scheduler
	shared *experiments.Shared
	mux    *http.ServeMux

	slots    chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	inFlight  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64

	memMu sync.Mutex
	mem   sim.MemStats // summed across completed requests
}

// New builds a server over its own scheduler and cache bundle (or the
// injected ones).
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		sched:  cfg.Sched,
		shared: cfg.Shared,
		slots:  make(chan struct{}, cfg.maxInFlight()),
	}
	if s.sched == nil {
		s.sched = sched.New(cfg.Workers)
	}
	if s.shared == nil {
		s.shared = experiments.NewShared(cfg.CacheBytes, cfg.CacheDir)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Sched exposes the shared scheduler (for a shutdown Stats line).
func (s *Server) Sched() *sched.Scheduler { return s.sched }

// Shared exposes the cache bundle.
func (s *Server) Shared() *experiments.Shared { return s.shared }

// BeginDrain stops admitting new experiment requests: /healthz flips to
// 503 draining (so a load balancer stops routing here) and experiment
// POSTs are rejected with 503. In-flight requests run to completion —
// pair with http.Server.Shutdown, which waits for them.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close shuts the substrate down after the last request has finished
// (call it after http.Server.Shutdown has returned): the shared
// scheduler's workers drain and exit. The server is spent afterwards.
func (s *Server) Close() {
	s.BeginDrain()
	s.sched.Close()
}

// acquire claims an in-flight slot, waiting in the bounded queue when
// the server is busy. full reports a bounced request (queue at
// capacity); ok false with full false means the client went away while
// queued.
func (s *Server) acquire(ctx context.Context) (ok, full bool) {
	select {
	case s.slots <- struct{}{}:
		return true, false
	default:
	}
	maxQueue := int64(s.cfg.maxQueue())
	if s.queued.Add(1) > maxQueue {
		s.queued.Add(-1)
		return false, true
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true, false
	case <-ctx.Done():
		return false, false
	}
}

func (s *Server) release() { <-s.slots }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// resolve validates a request against the registry and the server's
// per-request caps, returning the experiment ids to render and the
// session's sim config. A nil error with a non-nil reject means the
// request was refused with the given status and body.
type rejection struct {
	status int
	body   ErrorResponse
}

func (s *Server) resolve(req *Request) (ids []string, specs []workload.Spec, cfg sim.Config, rej *rejection) {
	if len(req.Experiments) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range req.Experiments {
			if _, err := experiments.Find(id); err != nil {
				return nil, nil, cfg, &rejection{http.StatusBadRequest, ErrorResponse{Error: err.Error(), ID: id}}
			}
			ids = append(ids, id)
		}
	}
	for _, name := range req.Specs {
		bench, input, found := strings.Cut(name, "/")
		if !found {
			return nil, nil, cfg, &rejection{http.StatusBadRequest,
				ErrorResponse{Error: fmt.Sprintf("spec %q is not of the form bench/input", name), Spec: name}}
		}
		spec, err := workload.Find(bench, input)
		if err != nil {
			return nil, nil, cfg, &rejection{http.StatusBadRequest, ErrorResponse{Error: err.Error(), Spec: name}}
		}
		specs = append(specs, spec)
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, nil, cfg, &rejection{http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("scale %v is negative", req.Scale)}}
	}
	if scale > s.cfg.maxScale() {
		return nil, nil, cfg, &rejection{http.StatusTooManyRequests,
			ErrorResponse{Error: fmt.Sprintf("scale %v exceeds the per-request limit %v", scale, s.cfg.maxScale())}}
	}
	if req.MemBudget < 0 {
		return nil, nil, cfg, &rejection{http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("membudget %d is negative", req.MemBudget)}}
	}
	if req.MemBudget > s.cfg.maxMemBudget() {
		return nil, nil, cfg, &rejection{http.StatusTooManyRequests,
			ErrorResponse{Error: fmt.Sprintf("membudget %d exceeds the per-request limit %d", req.MemBudget, s.cfg.maxMemBudget())}}
	}
	if req.DecodedBudget < 0 {
		return nil, nil, cfg, &rejection{http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("decodedbudget %d is negative", req.DecodedBudget)}}
	}
	if req.DecodedBudget > s.cfg.maxDecodedBudget() {
		return nil, nil, cfg, &rejection{http.StatusTooManyRequests,
			ErrorResponse{Error: fmt.Sprintf("decodedbudget %d exceeds the per-request limit %d", req.DecodedBudget, s.cfg.maxDecodedBudget())}}
	}
	if req.Window < 0 || req.Window > maxWindow {
		return nil, nil, cfg, &rejection{http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("window %d is outside [0, %d]", req.Window, maxWindow)}}
	}
	if req.DeadlineMS < 0 {
		return nil, nil, cfg, &rejection{http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("deadline_ms %d is negative", req.DeadlineMS)}}
	}
	cfg = sim.Config{
		Scale:              scale,
		HardDistanceWindow: req.Window,
		MemBudget:          req.MemBudget,
		DecodedBudget:      req.DecodedBudget,
		SnapshotRanges:     req.SnapshotRanges,
		Sched:              s.sched,
	}
	return ids, specs, cfg, nil
}

// session builds the per-request experiment context: a cheap object
// over the server's shared scheduler and caches, optionally narrowed to
// a spec subset.
func (s *Server) session(cfg sim.Config, specs []workload.Spec) *experiments.Context {
	ctx := experiments.NewContextShared(cfg, s.shared)
	if len(specs) > 0 {
		ctx.Specs = specs
	}
	return ctx
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	ids, specs, cfg, rej := s.resolve(&req)
	if rej != nil {
		if rej.status == http.StatusTooManyRequests {
			s.rejected.Add(1)
		}
		writeJSON(w, rej.status, rej.body)
		return
	}
	ok, full := s.acquire(r.Context())
	if !ok {
		if full {
			s.rejected.Add(1)
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "server at capacity (in-flight and queue slots full)"})
		}
		return
	}
	defer s.release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The request's whole task grid joins one scheduler group so it can
	// be canceled as a unit: a watcher trips the group when the client
	// disconnects (r.Context) or the request's deadline fires, the sim
	// grids unwind cooperatively at their next task boundary, and the
	// stream ends with a "canceled" record. The admission slot is freed
	// by the deferred release above only after the group has drained —
	// a canceled request never leaks its slot or its tasks.
	ctx := r.Context()
	if d := s.deadlineFor(&req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	g := s.sched.NewGroup()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			g.Cancel()
		case <-done:
		}
	}()

	s.stream(w, g, ids, s.session(cfg, specs))
}

// deadlineFor resolves a request's wall-clock bound: its own
// deadline_ms when set, else the server default (0 = unbounded).
func (s *Server) deadlineFor(req *Request) time.Duration {
	if req.DeadlineMS > 0 {
		return time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// stream runs the session and writes the NDJSON response: a start
// record the moment the request is admitted, one experiment record per
// rendered artifact (in request order, flushed as each completes), one
// dropped record per failed input, and a closing summary. A panic out
// of the suite run — one tenant's bug — becomes an error record on
// this stream only. The ablations' replay grids run in the request's
// group too, so a canceled group (disconnect, deadline) stops the suite
// or the experiment in progress, and the stream ends with a terminal
// "canceled" record instead of further experiments; the write is
// best-effort, since the usual cause is a client that is no longer
// there.
func (s *Server) stream(w http.ResponseWriter, g *sched.Group, ids []string, ctx *experiments.Context) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec Record) {
		_ = enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(Record{Type: "start"})

	var suite *sim.SuiteResult
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("suite run panicked: %v", r)
			}
		}()
		suite = ctx.SuiteGroup(g)
		return nil
	}()
	if err != nil {
		s.failed.Add(1)
		emit(Record{Type: "error", Error: err.Error()})
		return
	}
	canceled := func() {
		s.canceled.Add(1)
		emit(Record{
			Type:      "canceled",
			Dropped:   len(suite.Dropped),
			ElapsedMS: time.Since(start).Milliseconds(),
		})
	}
	if g.Canceled() {
		canceled()
		return
	}

	for _, id := range ids {
		e, findErr := experiments.Find(id)
		if findErr != nil {
			emit(Record{Type: "error", ID: id, Error: findErr.Error()})
			continue
		}
		var buf strings.Builder
		runErr := e.Run(ctx, &buf)
		if g.Canceled() {
			canceled()
			return
		}
		if runErr != nil {
			emit(Record{Type: "error", ID: id, Error: runErr.Error()})
			continue
		}
		emit(Record{Type: "experiment", ID: id, Output: buf.String()})
	}
	for _, d := range suite.Dropped {
		emit(Record{Type: "dropped", Spec: d.Spec.Name(), Error: d.Err.Error()})
	}

	s.memMu.Lock()
	s.mem.Add(&suite.Mem)
	s.memMu.Unlock()
	s.completed.Add(1)
	mem := memMetrics(suite.Mem)
	emit(Record{
		Type:      "summary",
		Events:    suite.TotalEvents(),
		Inputs:    len(suite.Inputs),
		Dropped:   len(suite.Dropped),
		ElapsedMS: time.Since(start).Milliseconds(),
		Mem:       &mem,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": s.sched.Workers()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
