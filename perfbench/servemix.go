package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"btr/internal/serve"
	"btr/internal/sim"
)

// The serve-mixed traffic is built from the only documented brserve
// usage, because no record of real traffic exists. The request shapes
// are the root README's "Serving experiments" example and the requests
// of the CI serve-smoke job (.github/workflows/ci.yml). A session
// replays the serve-smoke sequence: a cold sweep request, its exact
// repeat, the same inputs and scale narrowed to T1, and a budgeted
// read-ahead request over one input. So half of all requests are cold,
// as there. Each client runs one suite-shaped and three README-shaped
// sessions per pass, in a seeded order; that split is an assumption.
var (
	// serve-smoke's first request: the full suite at scale 0.05.
	suiteShape = serve.Request{Experiments: []string{"T1", "F13"}, Scale: 0.05}
	// The README example: two named inputs at scale 0.1.
	readmeShape = serve.Request{Experiments: []string{"T1", "F13"}, Specs: []string{"compress/bigtest.in", "perl/primes.pl"}, Scale: 0.1}
	// serve-smoke's budgeted read-ahead request. Its scale is the
	// server's cap, so fresh keys scale down from it, never up.
	budgetShape = serve.Request{Experiments: []string{"T1"}, Specs: []string{"gcc/genoutput.i"}, Scale: 8,
		MemBudget: oocMemBudget, DecodedBudget: oocDecodedBudget, ReadAhead: oocReadAhead}
)

// serveRequest is one planned request: its body is also its cache key.
type serveRequest struct {
	Body string
	Cold bool // a fresh key: the server generates, profiles and records
	Exps int  // experiment records the response must carry
}

// servedResult is what a client learned from one request.
type servedResult struct {
	OK        bool
	Err       string `json:",omitempty"`
	LatencyNS int64  // send to summary record
	RunMS     float64
	Events    int64
	Digest    string // the artifact stream's SHA-256
}

// plan draws one client's requests for one pass: the seed orders the
// sessions. Every session's keys are fresh, because its scales are
// shrunk by a factor unique to the (client, session); so which requests
// are warm is fixed by the plan, not by timing.
func plan(rng *rand.Rand, client int, scale float64) []serveRequest {
	shapes := []serve.Request{suiteShape, readmeShape, readmeShape, readmeShape}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	var out []serveRequest
	add := func(req serve.Request, cold bool) {
		body, _ := json.Marshal(req) // a plain struct always encodes
		out = append(out, serveRequest{Body: string(body), Cold: cold, Exps: len(req.Experiments)})
	}
	for j, cold := range shapes {
		fresh := scale * (1 - 1e-4*float64(client*len(shapes)+j+1))
		cold.Scale *= fresh
		add(cold, true)
		add(cold, false) // the repeat
		narrow := cold
		narrow.Experiments = []string{"T1"}
		add(narrow, false)
		budget := budgetShape
		budget.Scale *= fresh
		add(budget, true)
	}
	return out
}

// serveRun draws the request mix in the benchmark process and checks
// every response: a failed request is a failed operation, and so is a
// repeat whose artifacts differ from the first response to its key.
type serveRun struct {
	log   io.Writer
	rng   *rand.Rand
	first map[string]string // request body -> first response digest
	plans [][]serveRequest  // the pass in flight
}

func startServeMix(o *options) runState {
	return &serveRun{log: o.log, rng: rand.New(rand.NewPCG(o.seed, 0x5e12e)), first: make(map[string]string)}
}

func (r *serveRun) prepare(job *passJob) {
	r.plans = make([][]serveRequest, clients())
	for c := range r.plans {
		r.plans[c] = plan(r.rng, c, job.Scale)
	}
	job.Plans = r.plans
}

func (r *serveRun) account(pr *passResult, out *outcome) {
	for c, reqs := range r.plans {
		for i, req := range reqs {
			out.attempted++
			out.requests++
			if req.Cold {
				out.cold++
			}
			var s servedResult
			if c < len(pr.Served) && i < len(pr.Served[c]) {
				s = pr.Served[c][i]
			} else {
				s.Err = "no response"
			}
			if s.OK {
				if want, seen := r.first[req.Body]; !seen {
					r.first[req.Body] = s.Digest
				} else if want != s.Digest {
					s.OK, s.Err = false, "response differs from the first response to the same request"
				}
			}
			if !s.OK {
				fmt.Fprintf(r.log, "perfbench: client %d request %d (%s): %s\n", c, i, req.Body, s.Err)
				out.failed++
				continue
			}
			lat := time.Duration(s.LatencyNS)
			out.latencies = append(out.latencies, lat)
			out.runMS = append(out.runMS, s.RunMS)
			out.queueMS = append(out.queueMS, float64(lat.Microseconds())/1e3-s.RunMS)
		}
	}
}

// setupServeMix starts the pass's server over fresh caches; the timed
// part runs the clients' plans against it.
func setupServeMix(job *passJob, tr *tracer) (*timedPass, error) {
	run := fmt.Sprintf("pass-%d", job.Pass)
	ss := tr.start("setup", 0, run)
	s, err := startServer(tr)
	if err != nil {
		return nil, err
	}
	tr.end(ss, 0)
	return &timedPass{
		run:      func() (*passResult, error) { return s.drive(job, tr, run), nil },
		teardown: s.stop,
	}, nil
}

// liveServer is one pass's serve.Server behind a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	url    string
	done   chan error
}

const spanHeader = "X-Perfbench-Span"

// startServer builds a server over fresh caches and returns once
// /healthz answers.
func startServer(tr *tracer) (*liveServer, error) {
	srv := serve.New(serve.Config{Workers: workers()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	handler := srv.Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p, err := strconv.Atoi(r.Header.Get(spanHeader))
			if err != nil { // health checks carry no span
				inner.ServeHTTP(w, r)
				return
			}
			s := tr.start("serve.handle", p, "")
			inner.ServeHTTP(w, r)
			tr.end(s, 0)
		})
	}
	s := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: handler},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients(), DisableCompression: true}},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// drive runs every client's plan concurrently, each closed-loop.
func (s *liveServer) drive(job *passJob, tr *tracer, run string) *passResult {
	start := time.Now()
	pr := &passResult{Served: make([][]servedResult, len(job.Plans))}
	var wg sync.WaitGroup
	for c, reqs := range job.Plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				id := fmt.Sprintf("%s/c%d/r%d", run, c, i)
				pr.Served[c] = append(pr.Served[c], s.request(tr, id, req))
			}
		}()
	}
	wg.Wait()
	pr.WallNS = time.Since(start).Nanoseconds()
	for _, reqs := range pr.Served {
		for _, r := range reqs {
			pr.Events += r.Events
		}
	}
	met := s.srv.Metrics()
	pr.Rejected = met.Requests.Rejected
	pr.CacheHits, pr.CacheMiss = met.TraceCache.Hits, met.TraceCache.Misses
	pr.Sched = met.Sched
	pr.Mem = sim.MemStats{
		PageIns: met.Mem.PageIns, DecodedHits: met.Mem.DecodedHits, DecodedRedecodes: met.Mem.DecodedRedecodes,
		DecodedPeak: met.Mem.DecodedPeak, PrefetchHits: met.Mem.PrefetchHits, PrefetchWasted: met.Mem.PrefetchWasted,
	}
	return pr
}

// request sends one request and reads the whole NDJSON stream. Latency
// runs from the send to the summary record. The request fails unless
// the answer is a 200 stream of start, every asked-for artifact and a
// summary with nothing dropped. The digest covers every record before
// the summary and the summary's event and input counts; its elapsed
// time and memory counters vary by design.
func (s *liveServer) request(tr *tracer, id string, req serveRequest) servedResult {
	rs := tr.start("serve.request", 0, id)
	defer tr.end(rs, 0)
	fail := func(format string, args ...any) servedResult {
		return servedResult{Err: fmt.Sprintf(format, args...)}
	}
	hreq, err := http.NewRequest(http.MethodPost, s.url+"/v1/experiments", bytes.NewReader([]byte(req.Body)))
	if err != nil {
		return fail("%v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(spanHeader, strconv.Itoa(rs))
	t0 := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		return fail("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // the status is the failure
		return fail("status %s", resp.Status)
	}
	res := servedResult{OK: true}
	h := sha256.New()
	br := bufio.NewReader(resp.Body)
	exps, summary := 0, false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var rec serve.Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return fail("bad record: %v", jerr)
			}
			switch rec.Type {
			case "start":
			case "experiment":
				exps++
			case "summary":
				res.LatencyNS = time.Since(t0).Nanoseconds()
				res.RunMS = float64(rec.ElapsedMS)
				res.Events = rec.Events
				summary = true
				if rec.Dropped > 0 {
					return fail("%d inputs dropped", rec.Dropped)
				}
				line = fmt.Appendf(nil, "summary %d %d\n", rec.Events, rec.Inputs)
			default:
				return fail("%s record: %s %s", rec.Type, rec.Spec, rec.Error)
			}
			h.Write(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("read: %v", err)
		}
	}
	if !summary || exps != req.Exps {
		return fail("stream ended with %d of %d artifacts, summary %v", exps, req.Exps, summary)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res
}
