package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"btr/internal/experiments"
	"btr/internal/sim"
	"btr/internal/workload"
)

func testContext(t *testing.T, s *Server) *experiments.Context {
	t.Helper()
	cfg := sim.Config{Scale: testScale, Sched: s.sched}
	ctx := experiments.NewContextShared(cfg, s.shared)
	for _, name := range testSpecs {
		bench, input, _ := strings.Cut(name, "/")
		spec, err := workload.Find(bench, input)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Specs = append(ctx.Specs, spec)
	}
	return ctx
}

// TestStreamCanceledGroupEmitsCanceledRecord: a canceled group never
// produces experiment records — the stream ends with the typed
// "canceled" terminal record and the request is tallied as canceled,
// not completed or failed.
func TestStreamCanceledGroupEmitsCanceledRecord(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	g := s.sched.NewGroup()
	g.Cancel()
	rec := httptest.NewRecorder()
	s.stream(rec, g, []string{"T1"}, testContext(t, s))

	var types []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, r.Type)
	}
	if len(types) == 0 || types[len(types)-1] != "canceled" {
		t.Fatalf("record types %v, want terminal canceled", types)
	}
	for _, ty := range types {
		if ty == "experiment" || ty == "summary" {
			t.Fatalf("canceled stream carried a %q record: %v", ty, types)
		}
	}
	m := s.Metrics().Requests
	if m.Canceled != 1 || m.Completed != 0 || m.Failed != 0 {
		t.Fatalf("tallies %+v, want 1 canceled / 0 completed / 0 failed", m)
	}
}

// TestDeadlineCancelsRequest: a request whose deadline_ms fires before
// the suite finishes streams a canceled record and frees its slot; the
// next request on the same server runs to completion.
func TestDeadlineCancelsRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := Request{Experiments: []string{"T1", "F13"}, Specs: testSpecs, Scale: testScale, DeadlineMS: 1}
	code, recs := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (deadline cancels the stream, not admission)", code)
	}
	if len(recs) == 0 || recs[len(recs)-1].Type != "canceled" {
		t.Fatalf("records %+v, want terminal canceled", recs)
	}
	m := s.Metrics().Requests
	if m.Canceled != 1 || m.InFlight != 0 {
		t.Fatalf("tallies %+v, want 1 canceled / 0 in flight", m)
	}

	// The slot and scheduler survive: an undeadlined rerun completes.
	code, recs = post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale})
	if code != http.StatusOK || len(outputsByID(recs)) != 1 {
		t.Fatalf("post-cancel request: status %d, records %v", code, recs)
	}
	if m := s.Metrics().Requests; m.Completed != 1 || m.InFlight != 0 {
		t.Fatalf("post-cancel tallies %+v, want 1 completed / 0 in flight", m)
	}
}

// TestClientDisconnectCancels is the live-disconnect smoke: the client
// hangs up after the first record, the server cancels the request
// cooperatively, the slot drains and the canceled counter moves —
// without waiting for the suite to finish.
func TestClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A deliberately heavy request (50x the test scale): the hang-up
	// below lands microseconds after the start record, so the suite must
	// still be deep in pass 1 — cancellation, not completion, ends it.
	body, err := json.Marshal(Request{Experiments: []string{"T1", "F13"}, Specs: testSpecs, Scale: 50 * testScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // the start record
		t.Fatalf("reading first record: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics().Requests
		if m.InFlight == 0 && m.Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never drained the disconnected request: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectCancelsAblation: the ablations' replay grid runs in the
// request's group, so a client that hangs up while A1 is replaying
// stops it — the grid's queued tasks skip their replay, the request is
// tallied as canceled rather than completed, and its admission slot
// frees for the next request. The hang-up is timed off the scheduler's
// injector counter: the suite submits one task per input through the
// injector, and everything past that is the A1 grid.
func TestDisconnectCancelsAblation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})

	before := s.sched.Stats().InjectorSubmits
	body, err := json.Marshal(Request{Experiments: []string{"A1"}, Specs: testSpecs, Scale: 5 * testScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	suiteSubmits := int64(len(testSpecs))
	deadline := time.Now().Add(60 * time.Second)
	for s.sched.Stats().InjectorSubmits <= before+suiteSubmits {
		if time.Now().After(deadline) {
			t.Fatal("the A1 replay grid never started")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	for line := range lines {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if r.Type == "experiment" || r.Type == "summary" {
			t.Fatalf("canceled A1 request streamed a %q record", r.Type)
		}
	}
	resp.Body.Close()

	for s.Metrics().Requests.InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never drained the canceled ablation: %+v", s.Metrics().Requests)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := s.Metrics().Requests; m.Canceled != 1 || m.Completed != 0 || m.Failed != 0 {
		t.Fatalf("tallies %+v, want the request canceled, not completed or failed", m)
	}

	// The only slot is free again: a follow-up request runs to the end.
	code, recs := post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale})
	if code != http.StatusOK || len(outputsByID(recs)) != 1 {
		t.Fatalf("post-cancel request: status %d, records %v", code, recs)
	}
}
