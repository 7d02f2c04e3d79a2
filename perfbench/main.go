// Command perfbench is the repository's benchmark. It runs one named
// workload under a seed for a fixed time, checks every output, and
// prints its metrics as one JSON object on the last line of standard
// output: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. README.md describes the workloads and
// metrics; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload paper-artifacts --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/workload"
)

// options is one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    float64     // 0 = the workload's default
	dir      string      // where spans and scratch files go
	tmp      string      // this process's scratch directory under dir
	digests  digestTable // expected artifact digests
	log      io.Writer   // progress, digests and failures
}

// workloadDef is one named workload.
type workloadDef struct {
	scale float64 // default scale
	// start begins a run in the benchmark process; the runState it
	// returns prepares each pass's job and checks each pass's result.
	start func(o *options) runState
	// setup runs in a pass process: it builds the pass's fresh state and
	// returns the timed part.
	setup func(job *passJob, tr *tracer) (*timedPass, error)
	// probe times each layer's entry points in isolation, after the
	// traced passes.
	probe func(o *options, tr *tracer) error
	// An untraced run keeps making passes past its time until it has
	// attempted this many requests.
	minRequests int64
}

type runState interface {
	prepare(job *passJob)
	account(pr *passResult, out *outcome)
}

type timedPass struct {
	run      func() (*passResult, error)
	teardown func()
}

var workloads = map[string]workloadDef{
	"paper-artifacts": {
		scale: 0.15,
		start: paperArtifacts.start,
		setup: paperArtifacts.setup,
		probe: func(o *options, tr *tracer) error {
			return probeLayers(o, tr, seededSuite(o.seed), min(o.scale, probeScale), 0)
		},
	},
	"outofcore-sweep": {
		scale: 0.3,
		start: outOfCoreSweep.start,
		setup: outOfCoreSweep.setup,
		probe: func(o *options, tr *tracer) error {
			return probeLayers(o, tr, seededSuite(o.seed), min(o.scale, probeScale), oocMemBudget)
		},
	},
	"serve-mixed": {
		scale: 1, // multiplies every request's scale
		start: startServeMix,
		setup: setupServeMix,
		probe: func(o *options, tr *tracer) error {
			// The server runs its suites out of the harness's sight, so
			// one cold run of the suite-shaped request stands in for them.
			scale := suiteShape.Scale * o.scale
			probeSuite(tr, workload.Suite(), scale)
			return probeLayers(o, tr, workload.Suite(), scale, 0)
		},
		minRequests: 100, // so 10 latency samples lie above p90
	},
}

// probeScale caps the scale of the layer probes' inputs so the traced
// run stays short on the large workloads.
const probeScale = 0.05

// setupReps set-up-only processes run before the first pass; their
// set-up times join each pass's in the setup_s median.
const setupReps = 8

// warmup is how long every CPU spins before anything is timed. On the
// 2-vCPU virtual machine this benchmark was tuned on, the first second
// of work after an idle spell ran at about 60% of full speed.
const warmup = 1500 * time.Millisecond

func warmCPUs(d time.Duration) {
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < d; {
			}
		}()
	}
	wg.Wait()
}

// workers is the scheduler size: one worker per CPU.
func workers() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// clients is the number of closed-loop serve clients.
func clients() int { return min(2, runtime.NumCPU()) }

// outcome is what the timed passes of one run measured.
type outcome struct {
	setups    []time.Duration // process start until ready
	rss       []float64       // each pass process's peak resident memory, MiB
	passes    []time.Duration // wall of each pass's timed part
	latencies []time.Duration // per completed request; a batch pass is one request
	// Per pass: simulated conditional branches and completed requests
	// per second of its timed part.
	eventRates []float64
	reqRates   []float64
	attempted  int64
	failed     int64

	requests, cold int64
	runMS, queueMS []float64 // serve: server-side run time and the rest of the latency
	rejected       int64
	mem            sim.MemStats
	cacheHits      int64
	cacheMisses    int64
	schedSum       sched.Stats
}

func (o *outcome) addSched(s sched.Stats) {
	o.schedSum.Executed += s.Executed
	o.schedSum.Steals += s.Steals
	o.schedSum.Parks += s.Parks
	o.schedSum.InjectorSubmits += s.InjectorSubmits
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names and units, in BENCHMARK.json's order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"events_per_s", "events/s"}, {"peak_rss_mb", "MiB"},
	{"req_per_s", "req/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
}

var perLayerNames = []string{
	"workload.gen_ns_per_event", "core.profile_ns_per_event", "trace.encode_ns_per_event",
	"trace.decode_ns_per_event", "trace.page_ins", "trace.redecodes", "trace.pool_hit_ratio",
	"trace.prefetch_useful_ratio", "trace.decoded_peak_mb", "trace.cache_hit_ratio", "serve.cold_frac",
	"bpred.sweep_ns_per_event_slot", "sim.suite_s", "sim.suite_ns_per_event", "bpred.replay_ns_per_event",
	"experiments.ablation_s", "experiments.A1_s", "experiments.A2_s", "experiments.A4_s", "experiments.A5_s",
	"experiments.render_s", "sched.executed", "sched.steals", "sched.parks", "sched.injector_submits",
	"serve.queue_wait_ms_p50", "serve.run_ms_p50", "serve.rejected", "bench.tracing_overhead_frac",
	"ops_failed_frac",
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_event"), strings.HasSuffix(name, "_ns_per_event_slot"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

func main() {
	if isPassProcess() {
		if err := passMain(); err != nil {
			fatal(err)
		}
		return
	}
	o := options{log: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 0, "input seed (0 = the registry's own inputs)")
	secs := flag.Float64("seconds", 35, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	o.dir = filepath.Join(".bench_build", "perfbench")
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *traced == 1
	var err error
	if o.digests, err = parseDigests(committedDigests); err != nil {
		fatal(err)
	}
	warmCPUs(warmup)
	res, err := run(&o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run measures one workload and returns its result; the run's metadata
// line goes to stdout first.
func run(o *options, stdout io.Writer) (*result, error) {
	def, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.scale == 0 {
		o.scale = def.scale
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o.tmp = filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.tmp)
	// Anonymous spill files (budgeted serve requests) land here too.
	if prev, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", prev)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	if err := os.Setenv("TMPDIR", o.tmp); err != nil {
		return nil, err
	}

	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "scale": o.scale, "seconds": o.seconds.Seconds(),
		"trace": o.trace, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": workers(), "go": runtime.Version(), "commit": commit(),
		// Every pass is a new process that builds its scheduler, trace
		// cache, profile cache and spill directory, so each starts empty.
		"caches_empty": true,
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	plain, traced, err := measure(o, def.start(o), tr, time.Now().Add(o.seconds), def.minRequests)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	meta["passes"] = len(plain.passes) + len(traced.passes)
	if !o.trace {
		endToEnd(plain, res.Metrics)
		meta["pass_wall_s"] = seconds(plain.passes)
		meta["pass_rss_mb"] = plain.rss
	} else {
		if err := def.probe(o, tr); err != nil {
			return nil, err
		}
		perLayer(traced, plain, tr, res)
		if err := writeSpans(o, tr, meta); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	mj, _ := json.Marshal(meta) // plain values always encode
	fmt.Fprintf(stdout, "meta %s\n", mj)
	printTable(o.log, res)
	return res, nil
}

// measure runs set-up-only processes, then passes until the deadline,
// at least one of each kind and, untraced, until minRequests requests
// were attempted. It returns the outcomes of the untraced and the
// traced passes. Without a tracer every pass is untraced. With one,
// passes alternate untraced and traced, so both halves see the same
// drift in machine speed and their ratio is the tracing overhead; each
// traced pass's spans join the tracer under a "pass" span covering its
// process.
func measure(o *options, st runState, tr *tracer, until time.Time, minRequests int64) (plain, traced *outcome, err error) {
	plain, traced = &outcome{}, &outcome{}
	for i := 1; i <= setupReps; i++ {
		job := passJob{Workload: o.workload, Seed: o.seed, Scale: o.scale, Pass: -i, Tmp: o.tmp, SetupOnly: true}
		_, setup, _, err := runPass(o, job)
		if err != nil {
			return nil, nil, err
		}
		plain.setups = append(plain.setups, setup)
	}
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	for pass := 0; pass < minPasses || time.Now().Before(until) || (tr == nil && plain.requests < minRequests); pass++ {
		out, ptr := plain, (*tracer)(nil)
		if tr != nil && pass%2 == 1 {
			out, ptr = traced, tr
		}
		job := passJob{Workload: o.workload, Seed: o.seed, Scale: o.scale, Pass: pass, Trace: ptr != nil, Tmp: o.tmp}
		st.prepare(&job)
		ps := ptr.start("pass", 0, fmt.Sprintf("pass-%d", pass))
		pr, setup, rss, err := runPass(o, job)
		ptr.end(ps, 0)
		if err != nil {
			return nil, nil, err
		}
		ptr.adopt(pr.Spans, pr.EpochNS, ps)
		out.setups = append(out.setups, setup)
		out.rss = append(out.rss, rss)
		out.passes = append(out.passes, time.Duration(pr.WallNS))
		out.mem.Add(&pr.Mem)
		out.cacheHits += pr.CacheHits
		out.cacheMisses += pr.CacheMiss
		out.rejected += pr.Rejected
		out.addSched(pr.Sched)
		done := len(out.latencies)
		st.account(pr, out)
		wall := time.Duration(pr.WallNS).Seconds()
		out.eventRates = append(out.eventRates, ratio(float64(pr.Events), wall))
		out.reqRates = append(out.reqRates, ratio(float64(len(out.latencies)-done), wall))
	}
	return plain, traced, nil
}

func writeSpans(o *options, tr *tracer, meta map[string]any) error {
	dir := filepath.Join(o.dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", o.workload, o.seed, os.Getpid()))
	meta["spans"] = path
	if err := tr.write(path, meta); err != nil {
		return err
	}
	names := make([]string, 0)
	self := tr.selfTimes()
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(o.log, "spans: %d written to %s\n%-28s %8s %12s %12s\n", len(tr.spans), path, "layer", "spans", "total_s", "self_s")
	for _, n := range names {
		lt := self[n]
		fmt.Fprintf(o.log, "%-28s %8d %12.4f %12.4f\n", n, lt.count, float64(lt.total)/1e9, float64(lt.self)/1e9)
	}
	return nil
}

// commit names the source revision the binary was built from, when the
// build could see it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func endToEnd(out *outcome, m map[string]metric) {
	lat := seconds(out.latencies)
	vals := []float64{
		median(seconds(out.setups)),
		median(seconds(out.passes)),
		median(out.eventRates),
		median(out.rss),
		median(out.reqRates),
		quantile(lat, 0.5) * 1e3,
		quantile(lat, 0.9) * 1e3,
	}
	for i, e := range endToEndMetrics {
		m[e.name] = metric{vals[i], e.unit}
	}
}

// perLayer fills the per-layer metrics from the traced passes, their
// spans and the probes. Times are means per span, counters means per
// traced pass; a layer the workload never reaches reads 0.
func perLayer(out, plain *outcome, tr *tracer, res *result) {
	self := tr.selfTimes()
	passes := float64(len(out.passes))
	perSpan := func(name string) float64 {
		if lt := self[name]; lt != nil {
			return float64(lt.self) / 1e9 / float64(lt.count)
		}
		return 0
	}
	nsPerEvent := func(name string) float64 {
		if lt := self[name]; lt != nil {
			return ratio(float64(lt.self), float64(lt.events))
		}
		return 0
	}
	var ablation, render float64
	for name := range self {
		if id, ok := strings.CutPrefix(name, "experiments."); ok {
			if strings.HasPrefix(id, "A") {
				ablation += perSpan(name)
			} else {
				render += perSpan(name)
			}
		}
	}
	mem := out.mem
	v := map[string]float64{
		"workload.gen_ns_per_event":     nsPerEvent("workload.gen"),
		"core.profile_ns_per_event":     nsPerEvent("core.profile"),
		"trace.encode_ns_per_event":     nsPerEvent("trace.encode"),
		"trace.decode_ns_per_event":     nsPerEvent("trace.decode"),
		"trace.page_ins":                float64(mem.PageIns) / passes,
		"trace.redecodes":               float64(mem.DecodedRedecodes) / passes,
		"trace.pool_hit_ratio":          ratio(float64(mem.DecodedHits), float64(mem.DecodedHits+mem.DecodedRedecodes)),
		"trace.prefetch_useful_ratio":   ratio(float64(mem.PrefetchHits), float64(mem.PrefetchHits+mem.PrefetchWasted)),
		"trace.decoded_peak_mb":         float64(mem.DecodedPeak) / (1 << 20),
		"trace.cache_hit_ratio":         ratio(float64(out.cacheHits), float64(out.cacheHits+out.cacheMisses)),
		"serve.cold_frac":               ratio(float64(out.cold), float64(out.requests)),
		"bpred.sweep_ns_per_event_slot": nsPerEvent("bpred.sweep"),
		"sim.suite_s":                   perSpan("sim.suite"),
		"sim.suite_ns_per_event":        nsPerEvent("sim.suite"),
		"bpred.replay_ns_per_event":     nsPerEvent("bpred.replay"),
		"experiments.ablation_s":        ablation,
		"experiments.A1_s":              perSpan("experiments.A1"),
		"experiments.A2_s":              perSpan("experiments.A2"),
		"experiments.A4_s":              perSpan("experiments.A4"),
		"experiments.A5_s":              perSpan("experiments.A5"),
		"experiments.render_s":          render,
		"sched.executed":                float64(out.schedSum.Executed) / passes,
		"sched.steals":                  float64(out.schedSum.Steals) / passes,
		"sched.parks":                   float64(out.schedSum.Parks) / passes,
		"sched.injector_submits":        float64(out.schedSum.InjectorSubmits) / passes,
		"serve.queue_wait_ms_p50":       median(out.queueMS),
		"serve.run_ms_p50":              median(out.runMS),
		"serve.rejected":                float64(out.rejected),
		"bench.tracing_overhead_frac":   ratio(median(seconds(out.passes)), median(seconds(plain.passes))) - 1,
		"ops_failed_frac":               ratio(float64(res.Failed), float64(res.Attempted)),
	}
	for _, n := range perLayerNames {
		res.Metrics[n] = metric{v[n], unitOf(n)}
	}
}

// printTable writes every metric by name and unit, with the run's
// failure share, for a reader of the log.
func printTable(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, ok := res.Metrics["ops_failed_frac"]; !ok {
		fmt.Fprintf(w, "%-32s %16.6g ratio\n", "ops_failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Failed == 0)
}
