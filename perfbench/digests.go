package main

import (
	_ "embed"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// committedDigests pins the SHA-256 of every artifact the batch workloads
// render at their default scale, for the default seeds. Each line reads
// "workload scale seed artifact sha256". Regenerate it (after a change
// that alters artifacts on purpose) as README.md describes.
//
//go:embed digests.txt
var committedDigests string

type digestKey struct {
	workload string
	scale    string
	seed     uint64
}

func keyFor(workload string, scale float64, seed uint64) digestKey {
	return digestKey{workload, strconv.FormatFloat(scale, 'g', -1, 64), seed}
}

// digestTable maps a (workload, scale, seed) to its artifacts' digests.
type digestTable map[digestKey]map[string]string

func parseDigests(text string) (digestTable, error) {
	t := make(digestTable)
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 5 {
			return nil, fmt.Errorf("digests line %d: want 5 fields, have %d", n+1, len(f))
		}
		scale, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("digests line %d: %w", n+1, err)
		}
		seed, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digests line %d: %w", n+1, err)
		}
		k := keyFor(f[0], scale, seed)
		if t[k] == nil {
			t[k] = make(map[string]string)
		}
		t[k][f[3]] = f[4]
	}
	return t, nil
}

// digestCheck compares each pass's artifacts with the committed digests
// when the table has the run's (workload, scale, seed), and otherwise
// with the run's first pass — whose digests it prints, so a new seed's
// line set can be committed.
type digestCheck struct {
	key    digestKey
	want   map[string]string
	pinned bool
	log    io.Writer
}

func newDigestCheck(t digestTable, k digestKey, log io.Writer) *digestCheck {
	want := t[k]
	c := &digestCheck{key: k, want: make(map[string]string), pinned: want != nil, log: log}
	for id, d := range want {
		c.want[id] = d
	}
	return c
}

// ok reports whether artifact id's digest is the expected one.
func (c *digestCheck) ok(id, got string) bool {
	want, seen := c.want[id]
	if !seen && !c.pinned {
		c.want[id] = got
		fmt.Fprintf(c.log, "digest %s %s %d %s %s\n", c.key.workload, c.key.scale, c.key.seed, id, got)
		return true
	}
	if want != got {
		fmt.Fprintf(c.log, "perfbench: %s artifact %s digest %s, want %s\n", c.key.workload, id, got, want)
		return false
	}
	return true
}
