// Command brsim runs one predictor configuration over a workload or a
// stored trace and reports its miss rate — the sim-bpred analogue.
//
// Usage:
//
//	brsim -bench vortex -input vortex.lit -pred pas -k 8 [-scale 0.1]
//	      [-membudget bytes] [-memstats] [-snapshotranges N] [-workers N]
//	brsim -trace foo.btr -pred gshare -k 12
//
// Predictors: pas, gas, gag, pag, gshare, bimodal, lasttime, taken,
// tournament, agree, bimode, yags, filter, gskew, dynhybrid,
// transhybrid, takenhybrid (the profile-guided hybrids profile first).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"btr"
	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/sim"
	"btr/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	input := flag.String("input", "", "input set name")
	scale := flag.Float64("scale", 0.1, "workload scale")
	tracePath := flag.String("trace", "", "BTR1 or BTR3 trace file instead of a workload")
	pred := flag.String("pred", "pas", "predictor kind")
	k := flag.Int("k", 8, "history length")
	memBudget := flag.Int64("membudget", 0, "stream the recording to a BTR3 spill file, keeping at most about this many resident bytes; replays page the rest back in (0 = retain the recording whole)")
	cachedir := flag.String("cachedir", "", "reuse recorded workload traces as BTR3 spill files in this directory across invocations (filenames carry the workload-registry fingerprint, so a dir written by older workloads self-invalidates)")
	memStats := flag.Bool("memstats", false, "report the recording's memory shape (encoded bytes, resident peak, page-ins) after the run")
	snapshotRanges := flag.Int("snapshotranges", 0, "replay the recording as this many checkpointed chunk ranges in parallel (pas and gas only; 0 or 1 = chained replay, the default; results are bit-identical either way)")
	workers := flag.Int("workers", 0, "concurrent range workers for -snapshotranges (0 = GOMAXPROCS)")
	flag.Parse()

	// Workloads are recorded once: the profile-guided hybrids replay the
	// recording for their profiling pass and the measurement pass replays
	// it again, so the generator runs once no matter how many passes the
	// predictor needs. With -membudget the recording streams to a spill
	// file with a bounded resident prefix instead of being retained
	// whole; with -cachedir it persists as a BTR3 spill file, so repeated
	// invocations skip the generator entirely.
	var recorded *trace.Handle
	var cache *trace.Cache
	var key trace.CacheKey
	fromCache := false
	record := func() *trace.Handle { return nil }
	if *tracePath == "" && *bench != "" && *input != "" {
		spec, err := btr.FindWorkload(*bench, *input)
		if err != nil {
			fatal(err)
		}
		key = trace.CacheKey{Name: spec.Name(), Fingerprint: spec.Fingerprint(), Scale: *scale}
		if *cachedir != "" {
			// The registry-fingerprinted constructor: spill files from a
			// stale workload generation are ignored, not trusted.
			cacheBytes := int64(btr.DefaultTraceCacheBytes)
			if *memBudget > 0 {
				cacheBytes = *memBudget
			}
			cache = btr.NewTraceCache(cacheBytes, *cachedir)
			if h, ok := cache.GetHandle(key); ok {
				recorded = h
				fromCache = true
			}
		}
		// record runs the generator fresh — the first-run path, and the
		// recovery path when a cached spill file turns out corrupt.
		record = func() *trace.Handle {
			var h *trace.Handle
			if *memBudget > 0 {
				path := ""
				if cache != nil {
					path = cache.SpillPathFor(key)
				}
				if sr, err := trace.NewStreamRecorder(path, 0, *memBudget); err == nil {
					spec.Run(sr, *scale)
					if sh, err := sr.Seal(); err == nil {
						h = sh
					}
				}
				// Any streaming failure falls through to the resident path.
			}
			if h == nil {
				rec := trace.NewChunkRecorder(0)
				spec.Run(rec, *scale)
				h = trace.NewResidentHandle(rec.Trace())
			}
			if cache != nil {
				if err := cache.PutHandle(key, h); err != nil {
					fmt.Fprintln(os.Stderr, "brsim: warning:", err)
				}
			}
			return h
		}
		if recorded == nil {
			recorded = record()
		}
	}

	// attempt builds the predictor and runs the measurement, converting
	// the paging panics a corrupt spill file raises into an error the
	// retry logic below can classify.
	var p btr.Predictor
	var res bpred.Result
	var snapStats *sim.SnapshotRunStats
	attempt := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = e
					return
				}
				err = fmt.Errorf("%v", r)
			}
		}()
		p, err = buildPredictor(*pred, *k, recorded)
		if err != nil {
			return err
		}
		snapStats = nil
		switch {
		case *tracePath != "":
			f, err := os.Open(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			r, err := trace.NewReader(f)
			if err != nil {
				return err
			}
			res, err = bpred.Run(p, r)
			return err
		case recorded != nil:
			if *snapshotRanges > 1 {
				if mk := snapshotFactory(*pred, *k); mk != nil {
					var stats sim.SnapshotRunStats
					res, stats, err = sim.RunPredictorSnapshot(recorded, mk, *snapshotRanges, *workers)
					snapStats = &stats
					return err
				}
				fmt.Fprintf(os.Stderr, "brsim: warning: -snapshotranges supports pas and gas only; replaying %s chained\n", *pred)
			}
			res, err = bpred.Run(p, recorded.Source())
			return err
		default:
			return fmt.Errorf("need either -trace or -bench/-input")
		}
	}
	err := attempt()
	if err != nil && fromCache && errors.Is(err, trace.ErrCorruptSpill) {
		// The cached spill file no longer decodes (checksum mismatch,
		// truncation). Quarantine it and re-record from the generator —
		// the rerun is bit-identical to an uncached run.
		fmt.Fprintf(os.Stderr, "brsim: warning: cached recording is corrupt (%v); quarantined, re-recording\n", err)
		cache.Quarantine(key)
		fromCache = false
		recorded = record()
		err = attempt()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("predictor=%s events=%d misses=%d missrate=%.4f accuracy=%.2f%% state=%d bits\n",
		p.Name(), res.Events, res.Misses, res.MissRate(), 100*(1-res.MissRate()), p.SizeBits())
	if snapStats != nil {
		fmt.Printf("snapshots: ranges=%d count=%d bytes=%d\n",
			snapStats.Ranges, snapStats.Snapshots, snapStats.SnapshotBytes)
	}
	if *memStats && recorded != nil {
		fmt.Printf("mem: encoded_bytes=%d resident_peak=%d page_ins=%d spilled=%v\n",
			recorded.EncodedBytes(), recorded.ResidentPeak(), recorded.PageIns(), recorded.Spilled())
	}
}

// snapshotFactory returns a builder for the predictors that implement
// the checkpointed replay contract (batch sweep + update-only warmup +
// flat snapshots); nil for everything else.
func snapshotFactory(kind string, k int) func() sim.SnapshotPredictor {
	switch kind {
	case "pas":
		return func() sim.SnapshotPredictor { return bpred.NewPAs(k) }
	case "gas":
		return func() sim.SnapshotPredictor { return bpred.NewGAs(k) }
	default:
		return nil
	}
}

func buildPredictor(kind string, k int, recorded *trace.Handle) (btr.Predictor, error) {
	switch kind {
	case "pas":
		return bpred.NewPAs(k), nil
	case "gas":
		return bpred.NewGAs(k), nil
	case "gag":
		return bpred.NewGAg(k), nil
	case "pag":
		return bpred.NewPAg(k, 12), nil
	case "gshare":
		return bpred.NewGShare(bpred.GAsPHTBits, k), nil
	case "bimodal":
		return bpred.NewBimodal(bpred.GAsPHTBits), nil
	case "lasttime":
		return bpred.NewLastTime(bpred.GAsPHTBits), nil
	case "taken":
		return bpred.NewAlwaysTaken(), nil
	case "agree":
		return bpred.NewAgree(bpred.GAsPHTBits, k, 14), nil
	case "tournament":
		return bpred.NewTournament("Tournament(PAs,gshare)",
			bpred.NewPAs(k), bpred.NewGShare(16, k), 12), nil
	case "bimode":
		return bpred.NewBiMode(16, 15, k), nil
	case "yags":
		return bpred.NewYAGS(16, 14, 8, k), nil
	case "filter":
		return bpred.NewFilter(14, 32, bpred.NewGShare(16, k)), nil
	case "gskew":
		return bpred.NewGSkew(16, k), nil
	case "dynhybrid":
		return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{}), nil
	case "transhybrid", "takenhybrid":
		if recorded == nil {
			return nil, fmt.Errorf("%s needs -bench/-input (it profiles first)", kind)
		}
		profiler := core.NewProfiler()
		recorded.Replay(profiler)
		classes := core.Classify(profiler.Profiles())
		if kind == "transhybrid" {
			return bpred.NewTransitionHybrid(classes, profiler.Profiles(), bpred.HybridComponents{}), nil
		}
		return bpred.NewTakenHybrid(classes, profiler.Profiles(), bpred.HybridComponents{}), nil
	default:
		return nil, fmt.Errorf("unknown predictor %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brsim:", err)
	os.Exit(1)
}
