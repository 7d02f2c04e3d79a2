// Command benchtrend diffs two BENCH_<pr>.json snapshots (see
// cmd/benchjson) and fails on benchmark movement past a threshold, so
// CI tracks the suite-sweep perf trajectory across PRs instead of
// re-gating one hand-picked pair with awk.
//
// Usage:
//
//	benchtrend -old BENCH_12.json -new BENCH_13.json \
//	           -baseline WorkloadCompress -threshold 10 -failat 25
//
// Snapshots are usually measured on different machines (the old one is
// committed by a previous PR, the new one comes off the current
// runner), so raw ns/op is not comparable across them. With -baseline,
// every benchmark is first normalised to the named benchmark *within
// its own snapshot* — a generator-only benchmark is the natural
// yardstick, since no simulator change can move it — and the thresholds
// apply to the movement of that ratio. Movement past -threshold is flagged ("!");
// only movement past -failat fails the run: normalisation damps but
// does not remove cross-machine noise (generator-bound and sweep-bound
// benchmarks scale differently across CPUs), so the flag line is the
// trend signal and the fail line catches real cliffs. Benchmarks
// present on only one side are listed but never fail the gate; a
// missing baseline downgrades the run to a report-only diff (exit 0)
// rather than gating on cross-machine noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// Benchmark mirrors cmd/benchjson's record (the fields the diff needs).
type Benchmark struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	PR         int         `json:"pr"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

type key struct {
	name    string
	workers int
}

func load(path string) (*Report, map[key]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		m[key{b.Name, b.Workers}] = b
	}
	return &rep, m, nil
}

// baselineNs returns the baseline benchmark's ns/op in one snapshot,
// preferring the entry whose worker count matches w (benchjson splits
// names by GOMAXPROCS suffix), falling back to any worker count.
func baselineNs(m map[key]Benchmark, name string, w int) float64 {
	if b, ok := m[key{name, w}]; ok && b.NsPerOp > 0 {
		return b.NsPerOp
	}
	for k, b := range m {
		if k.name == name && b.NsPerOp > 0 {
			return b.NsPerOp
		}
	}
	return 0
}

func main() {
	oldPath := flag.String("old", "", "previous BENCH_<pr>.json snapshot")
	newPath := flag.String("new", "", "current BENCH_<pr>.json snapshot")
	baseline := flag.String("baseline", "WorkloadCompress", "benchmark every other one is normalised to within its snapshot; empty = compare raw ns/op")
	threshold := flag.Float64("threshold", 10, "flag benchmarks that move by more than this percentage")
	failat := flag.Float64("failat", 25, "fail when a benchmark slows by more than this percentage (0 = fail at -threshold)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: need -old and -new")
		os.Exit(2)
	}

	oldRep, oldM, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, newM, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if *failat <= 0 {
		*failat = *threshold
	}
	fmt.Printf("benchtrend: PR %d -> PR %d, flag at %.0f%%, fail at %.0f%%\n",
		oldRep.PR, newRep.PR, *threshold, *failat)

	gate := true
	if *baseline == "" {
		fmt.Println("comparing raw ns/op (no baseline normalisation)")
	} else if baselineNs(oldM, *baseline, 0) <= 0 || baselineNs(newM, *baseline, 0) <= 0 {
		fmt.Printf("baseline %q missing from a snapshot; report-only raw diff, gate disabled\n", *baseline)
		gate = false
		*baseline = ""
	}

	var keys []key
	for k := range newM {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].workers < keys[j].workers
	})

	failed := 0
	for _, k := range keys {
		nb := newM[k]
		ob, ok := oldM[k]
		if !ok {
			fmt.Printf("  %-28s w=%-2d NEW  %12.0f ns/op\n", k.name, k.workers, nb.NsPerOp)
			continue
		}
		oldV, newV := ob.NsPerOp, nb.NsPerOp
		unit := "ns/op"
		if *baseline != "" && k.name != *baseline {
			oldV = ob.NsPerOp / baselineNs(oldM, *baseline, k.workers)
			newV = nb.NsPerOp / baselineNs(newM, *baseline, k.workers)
			unit = "x-of-" + *baseline
		}
		move := 100 * (newV/oldV - 1)
		mark := " "
		if move > *threshold {
			mark = "!"
			// The baseline itself (and everything when the gate is off)
			// is reported raw across machines, never gated.
			if move > *failat && gate && (*baseline == "" || k.name != *baseline) {
				failed++
			}
		} else if move < -*threshold {
			mark = "+"
		}
		fmt.Printf("%s %-28s w=%-2d %10.3f -> %10.3f %-22s (%+.1f%%)\n",
			mark, k.name, k.workers, oldV, newV, unit, move)
	}
	for k := range oldM {
		if _, ok := newM[k]; !ok {
			fmt.Printf("  %-28s w=%-2d GONE\n", k.name, k.workers)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) slowed by more than %.0f%%\n", failed, *failat)
		os.Exit(1)
	}
	fmt.Println("benchtrend: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtrend:", err)
	os.Exit(1)
}
