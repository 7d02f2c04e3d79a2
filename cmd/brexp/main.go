// Command brexp regenerates the paper's tables and figures.
//
// Usage:
//
//	brexp [-scale 1.0] [-workers N] [-out results] [-run all|T1,F13,...]
//	      [-chunk N] [-cachedir dir]
//	      [-membudget bytes] [-decodedbudget bytes]
//	      [-snapshotranges N] [-readahead N]
//
// Each experiment is written to <out>/<id>.txt; -list shows the catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"btr"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale; 1.0 = Table 1 counts /1000")
	workers := flag.Int("workers", 0, "scheduler workers (0 = GOMAXPROCS)")
	chunk := flag.Int("chunk", 0, "recorded-trace chunk size in events, which is also one sweep task's grain (0 = default)")
	memBudget := flag.Int64("membudget", 0, "stream each recording to a BTR3 spill file during pass 1, keeping at most about this many resident bytes per input; replays page the rest back in (0 = retain recordings whole)")
	decodedBudget := flag.Int64("decodedbudget", 0, "byte budget for each input's decoded-chunk pool during the bank sweep; LRU columns past it are re-decoded on the next visit (0 = retain all decoded columns, negative = retain none)")
	snapshotRanges := flag.Int("snapshotranges", 0, "split every bank slot's sweep into this many checkpointed chunk ranges that run concurrently from restored predictor snapshots; breaks the 34-slot parallelism ceiling when cores outnumber slots (0 or 1 = one range per slot, the default; results are bit-identical either way)")
	readAhead := flag.Int("readahead", 0, "prefetch this many chunks ahead of every sweep cursor: spill paging and BTR3 decode overlap with predictor compute, with prefetched columns charged against -decodedbudget (0 = no read-ahead; results are bit-identical either way)")
	cachedir := flag.String("cachedir", "", "spill recorded traces to BTR3 files here and reuse them across runs (filenames carry the workload-registry fingerprint, so a dir written by older workloads self-invalidates)")
	out := flag.String("out", "results", "output directory")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	stdout := flag.Bool("stdout", false, "also echo each report to stdout")
	flag.Parse()

	if *list {
		for _, e := range btr.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Paper)
		}
		return
	}

	var ids []string
	if *run == "all" {
		for _, e := range btr.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	cfg := btr.SimConfig{
		Scale:          *scale,
		Workers:        *workers,
		ChunkEvents:    *chunk,
		MemBudget:      *memBudget,
		DecodedBudget:  *decodedBudget,
		SnapshotRanges: *snapshotRanges,
		ReadAhead:      *readAhead,
	}
	if *cachedir != "" {
		// Under a memory budget the cache's resident columns are bounded
		// to it too; otherwise a full-resident cache would undo -membudget.
		cacheBytes := int64(btr.DefaultTraceCacheBytes)
		if *memBudget > 0 {
			cacheBytes = *memBudget
		}
		cfg.Cache = btr.NewTraceCache(cacheBytes, *cachedir)
	}
	// Build the scheduler explicitly (rather than letting the suite run
	// spin up a private one) so its counters survive the run and can be
	// reported below.
	pool := btr.NewScheduler(*workers)
	defer pool.Close()
	cfg.Sched = pool
	ctx := btr.NewExperimentContext(cfg)
	start := time.Now()
	// Run the shared sweep up front on a cancelable group: SIGINT/SIGTERM
	// during the long suite run cancels it cooperatively (the grids
	// unwind at task boundaries) instead of leaving a killed process and
	// half-written artifacts. Once the sweep is done the handler is
	// released, so a later interrupt behaves normally.
	group := pool.NewGroup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "brexp: interrupted — canceling suite run")
			group.Cancel()
		}
	}()
	suite := ctx.SuiteGroup(group)
	signal.Stop(sigc)
	close(sigc)
	if group.Canceled() {
		for _, d := range suite.Dropped {
			fmt.Fprintf(os.Stderr, "brexp: dropped input %v\n", d)
		}
		fatal(fmt.Errorf("suite run canceled (%d inputs dropped); no artifacts written", len(suite.Dropped)))
	}
	for _, id := range ids {
		path := filepath.Join(*out, id+".txt")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		expStart := time.Now()
		err = btr.RunExperiment(ctx, id, f)
		cerr := f.Close()
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", id, err))
		}
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("%-4s -> %s (%.1fs)\n", id, path, time.Since(expStart).Seconds())
		if *stdout {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		}
	}
	for _, d := range suite.Dropped {
		fmt.Fprintf(os.Stderr, "brexp: dropped input %v\n", d)
	}
	if m := suite.Mem; m.RecordedBytes > 0 {
		fmt.Printf("mem: recorded_bytes=%d resident_peak=%d page_ins=%d pool_hits=%d redecodes=%d pool_evicted=%d decoded_peak=%d prefetch_hits=%d prefetch_wasted=%d prefetch_inflight_peak=%d\n",
			m.RecordedBytes, m.ResidentPeak, m.PageIns, m.DecodedHits, m.DecodedRedecodes, m.DecodedEvicted, m.DecodedPeak,
			m.PrefetchHits, m.PrefetchWasted, m.PrefetchInFlightPeak)
		if m.SnapshotCount > 0 {
			fmt.Printf("snapshots: count=%d bytes=%d peak=%d\n",
				m.SnapshotCount, m.SnapshotBytes, m.SnapshotPeak)
		}
	}
	ss := pool.Stats()
	fmt.Printf("sched: executed=%d steals=%d submits=%d parks=%d workers=%d\n",
		ss.Executed, ss.Steals, ss.InjectorSubmits, ss.Parks, ss.Workers)
	if cfg.Cache != nil {
		s := cfg.Cache.Stats()
		fmt.Printf("trace cache: hits=%d misses=%d loads=%d spills=%d evicted=%d quarantined=%d resident=%d/%dB\n",
			s.Hits, s.Misses, s.Loads, s.Spills, s.Evicted, s.Quarantined, s.Resident, s.ResidentBytes)
		if s.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "brexp: warning: %d corrupt spill file(s) quarantined under %s (recordings were regenerated; run brtrace -verify %s to audit the rest)\n",
				s.Quarantined, *cachedir, *cachedir)
		}
		if s.SpillFailures > 0 {
			fmt.Fprintf(os.Stderr, "brexp: warning: %d trace spills failed; -cachedir %s is not persisting (memory reuse unaffected)\n",
				s.SpillFailures, *cachedir)
		}
	}
	fmt.Printf("done: %d experiments, %d dynamic branches, %d dropped inputs, %.1fs total\n",
		len(ids), suite.TotalEvents(), len(suite.Dropped), time.Since(start).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brexp:", err)
	os.Exit(1)
}
