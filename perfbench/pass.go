package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"

	"btr/internal/sched"
	"btr/internal/sim"
)

// Every pass runs in a fresh process, as a user's brexp or brserve run
// would: its caches start empty, its set-up time runs from process start
// until it is ready, and its peak resident memory is its own. The
// benchmark re-executes its own binary with childEnv set; the child reads
// a passJob on stdin, prints "ready" once set up, runs the timed part and
// prints a passResult as its last line.
const childEnv = "PERFBENCH_PASS_PROCESS"

// passJob is everything a pass process needs.
type passJob struct {
	Workload  string
	Seed      uint64
	Scale     float64
	Pass      int
	Trace     bool
	Tmp       string
	SetupOnly bool             // get ready, then exit
	Plans     [][]serveRequest `json:",omitempty"` // serve-mixed: each client's requests
}

// passResult is what a pass process measured and produced.
type passResult struct {
	WallNS    int64 // the timed part
	Events    int64 // simulated conditional branches completed
	Inputs    int   // batch: suite inputs attempted
	Artifacts []artifact
	Dropped   []string
	Served    [][]servedResult // serve-mixed: per client, in plan order
	Mem       sim.MemStats
	CacheHits int64
	CacheMiss int64
	Rejected  int64
	Sched     sched.Stats
	EpochNS   int64 // the pass's span clock, Unix ns
	Spans     []span
}

type artifact struct {
	ID, Digest, Err string
}

// runPass runs one pass process and returns its result, the time from
// process start until it was ready, and its peak resident memory in MiB.
func runPass(o *options, job passJob) (*passResult, time.Duration, float64, error) {
	in, err := json.Marshal(job)
	if err != nil {
		return nil, 0, 0, err
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = o.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("start pass process: %w", err)
	}
	br := bufio.NewReader(stdout)
	ready, rerr := br.ReadString('\n')
	setup := time.Since(t0)
	rest, err := io.ReadAll(br)
	if werr := cmd.Wait(); werr != nil {
		return nil, 0, 0, fmt.Errorf("pass %d process: %w", job.Pass, werr)
	}
	if rerr != nil || ready != "ready\n" || err != nil {
		return nil, 0, 0, fmt.Errorf("pass %d process: no ready line (%q, %v, %v)", job.Pass, ready, rerr, err)
	}
	rss := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // Linux reports KiB
	if job.SetupOnly {
		return nil, setup, rss, nil
	}
	var pr passResult
	if err := json.Unmarshal(rest, &pr); err != nil {
		return nil, 0, 0, fmt.Errorf("pass %d result: %w", job.Pass, err)
	}
	return &pr, setup, rss, nil
}

// passMain is the pass process: set up, report ready, run, report.
func passMain() error {
	var job passJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		return fmt.Errorf("read pass job: %w", err)
	}
	def, ok := workloads[job.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", job.Workload)
	}
	var tr *tracer
	if job.Trace {
		tr = newTracer()
	}
	timed, err := def.setup(&job, tr)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if job.SetupOnly {
		timed.teardown()
		return nil
	}
	pr, err := timed.run()
	// Teardown waits for the server's handlers to return, so every span
	// is closed before they are read.
	timed.teardown()
	if err != nil {
		return err
	}
	if tr != nil {
		pr.EpochNS, pr.Spans = tr.epoch.UnixNano(), tr.snapshot()
	}
	return json.NewEncoder(os.Stdout).Encode(pr)
}

// isPassProcess reports whether this process was started by runPass.
func isPassProcess() bool { return os.Getenv(childEnv) == "1" }
