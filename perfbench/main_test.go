package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as a pass process too: the
// benchmark re-executes its own binary for every pass.
func TestMain(m *testing.M) {
	if isPassProcess() {
		if err := passMain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScale sizes each workload so one pass takes a fraction of a second.
var tinyScale = map[string]float64{
	"paper-artifacts": 0.002,
	"outofcore-sweep": 0.004,
	"serve-mixed":     0.02,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyRun(t *testing.T, workload string, traced bool, digests digestTable, log io.Writer) *result {
	t.Helper()
	o := &options{
		workload: workload, seed: 7, seconds: 50 * time.Millisecond, trace: traced,
		scale: tinyScale[workload], dir: t.TempDir(), digests: digests, log: log,
	}
	var meta bytes.Buffer
	res, err := run(o, &meta)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !bytes.HasPrefix(meta.Bytes(), []byte("meta {")) {
		t.Errorf("%s: metadata line %q", workload, meta.String())
	}
	return res
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced and
// traced, and checks the result carries exactly BENCHMARK.json's metrics
// with their units and no failed operation.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res := tinyRun(t, w.Name, traced, digestTable{}, &log)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if traced && res.Metrics["ops_failed_frac"].Value != 0 {
				t.Errorf("%s: ops_failed_frac %v", w.Name, res.Metrics["ops_failed_frac"].Value)
			}
			if line, err := json.Marshal(res); err != nil || !json.Valid(line) {
				t.Errorf("%s: result does not encode: %v", w.Name, err)
			}
		}
	}
}

// TestWrongDigestFails pins one artifact to a wrong digest and checks
// the run counts it as a failed operation.
func TestWrongDigestFails(t *testing.T) {
	const w = "paper-artifacts"
	wrong := digestTable{keyFor(w, tinyScale[w], 7): {"T2": "0000"}}
	res := tinyRun(t, w, false, wrong, io.Discard)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong digest not counted: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	table, err := parseDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-artifacts", "outofcore-sweep"} {
		got := table[keyFor(w, workloads[w].scale, 0)]
		if len(got) == 0 {
			t.Errorf("no committed digests for %s at seed 0", w)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "req", Start: 30, End: 70}, // overlaps the first
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 95},
	}}
	self := tr.selfTimes()
	if got := self["pass"].self; got != 100-60-5 {
		t.Errorf("pass self time %d, want 35", got)
	}
	if got := self["req"].self; got != 40+40+5 {
		t.Errorf("req self time %d, want 85", got)
	}
}
