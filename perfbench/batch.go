package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// The out-of-core workload's budgets: 64 KiB of resident recording per
// input and 128 KiB of decoded columns per sweep, with four chunks of
// read-ahead — the fixed-budget setting of the root README's knee table.
const (
	oocMemBudget     = 64 << 10
	oocDecodedBudget = 128 << 10
	oocReadAhead     = 4
)

// batch is a workload that drives the experiments package the way brexp
// does: scheduler, context, SuiteGroup, then each artifact in turn.
type batch struct {
	ids      []string // artifacts rendered per pass, in brexp's order
	budgeted bool     // stream recordings to spill files under the budgets above
}

var (
	paperArtifacts = batch{ids: allIDs(func(string) bool { return true })}
	// The out-of-core workload renders the artifacts that read only the
	// suite sweep: every table and figure, but no ablation (A1–A5).
	outOfCoreSweep = batch{ids: allIDs(func(id string) bool { return !strings.HasPrefix(id, "A") }), budgeted: true}
)

func allIDs(keep func(id string) bool) []string {
	var ids []string
	for _, e := range experiments.All() {
		if keep(e.ID) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// seededSuite copies the Table 1 suite with every spec's seed derived
// from the benchmark seed; seed 0 keeps the registry's own seeds, so its
// artifacts are the ones brexp writes.
func seededSuite(seed uint64) []workload.Spec {
	specs := workload.Suite()
	if seed == 0 {
		return specs
	}
	for i := range specs {
		specs[i].Seed = splitmix(specs[i].Seed ^ seed*0x9E3779B97F4A7C15)
	}
	return specs
}

func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// setup builds the pass's scheduler and a context over fresh caches
// (with its own spill directory when budgeted).
func (b batch) setup(job *passJob, tr *tracer) (*timedPass, error) {
	run := fmt.Sprintf("pass-%d", job.Pass)
	ss := tr.start("setup", 0, run)
	specs := seededSuite(job.Seed)
	pool := sched.New(workers())
	cfg := sim.Config{Scale: job.Scale, Sched: pool}
	sh := experiments.NewShared(0, "")
	spill := ""
	if b.budgeted {
		spill = filepath.Join(job.Tmp, fmt.Sprintf("spill-%d", job.Pass))
		cfg.MemBudget, cfg.DecodedBudget, cfg.ReadAhead = oocMemBudget, oocDecodedBudget, oocReadAhead
		sh = &experiments.Shared{
			Traces:   trace.NewCache(oocMemBudget, spill, workload.RegistryFingerprint()),
			Profiles: sim.NewProfileCacheBytes(oocMemBudget),
		}
	}
	ctx := experiments.NewContextShared(cfg, sh)
	ctx.Specs = specs
	tr.end(ss, 0)
	return &timedPass{
		run: func() (*passResult, error) { return b.timed(tr, run, pool, ctx) },
		teardown: func() {
			pool.Close()
			if spill != "" {
				os.RemoveAll(spill)
			}
		},
	}, nil
}

// timed runs the suite sweep and renders every artifact.
func (b batch) timed(tr *tracer, run string, pool *sched.Scheduler, ctx *experiments.Context) (*passResult, error) {
	start := time.Now()
	s := tr.start("sim.suite", 0, run)
	suite := ctx.SuiteGroup(pool.NewGroup())
	tr.end(s, suite.TotalEvents())
	pr := &passResult{Inputs: len(ctx.Specs)}
	for _, id := range b.ids {
		e, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		s := tr.start("experiments."+id, 0, run)
		err = e.Run(ctx, &buf)
		tr.end(s, 0)
		a := artifact{ID: id}
		if err != nil {
			a.Err = err.Error()
		} else {
			sum := sha256.Sum256(buf.Bytes())
			a.Digest = hex.EncodeToString(sum[:])
		}
		pr.Artifacts = append(pr.Artifacts, a)
	}
	pr.WallNS = time.Since(start).Nanoseconds()
	pr.Events = suite.TotalEvents()
	for _, d := range suite.Dropped {
		pr.Dropped = append(pr.Dropped, d.Error())
	}
	pr.Mem = suite.Mem
	cs := ctx.Cfg.Cache.Stats()
	pr.CacheHits, pr.CacheMiss = cs.Hits, cs.Misses
	pr.Sched = pool.Stats()
	return pr, nil
}

func (b batch) start(o *options) runState {
	return &batchRun{
		ids:   b.ids,
		check: newDigestCheck(o.digests, keyFor(o.workload, o.scale, o.seed), o.log),
		log:   o.log,
	}
}

// batchRun checks each pass in the benchmark process: every input is an
// operation and fails if dropped, and every artifact is one and fails
// if it errors or its digest is not the expected one.
type batchRun struct {
	ids   []string
	check *digestCheck
	log   io.Writer
}

func (r *batchRun) prepare(*passJob) {}

func (r *batchRun) account(pr *passResult, out *outcome) {
	out.attempted += int64(pr.Inputs + len(r.ids))
	out.failed += int64(len(pr.Dropped) + len(r.ids) - len(pr.Artifacts))
	for _, d := range pr.Dropped {
		fmt.Fprintf(r.log, "perfbench: dropped input: %s\n", d)
	}
	for _, a := range pr.Artifacts {
		switch {
		case a.Err != "":
			fmt.Fprintf(r.log, "perfbench: artifact %s: %s\n", a.ID, a.Err)
			out.failed++
		case !r.check.ok(a.ID, a.Digest):
			out.failed++
		}
	}
	out.latencies = append(out.latencies, time.Duration(pr.WallNS))
	out.requests++
}
