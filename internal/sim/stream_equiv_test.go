package sim

import (
	"fmt"
	"runtime"
	"testing"

	"btr/internal/trace"
	"btr/internal/workload"
)

// TestStreamedMatrixMatchesRetained is the golden equivalence matrix
// for the out-of-core streaming pipeline: {retained, spill-backed with
// small budgets, a decoded pool budgeted below one chunk} × workers
// {1, 4, GOMAXPROCS} must all produce bit-identical SuiteResults. A small
// ChunkEvents forces many chunks at test scale so the budgets genuinely
// evict, page and re-decode; the memory-shape counters are asserted to
// prove the streamed runs actually ran out of core rather than
// trivially passing because everything fit.
func TestStreamedMatrixMatchesRetained(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "li", "ref.lsp"),
	}
	base := Config{Scale: testScale, ChunkEvents: 256}
	retained := RunSuite(specs, base)
	if m := retained.Mem; m.PageIns != 0 {
		t.Fatalf("retained run unexpectedly streamed: %+v", m)
	}
	for _, r := range retained.Inputs {
		if r.Mem.ResidentPeak != r.Mem.RecordedBytes {
			t.Fatalf("%s: retained recording not fully resident: %+v", r.Spec.Name(), r.Mem)
		}
	}

	budgets := []struct {
		name    string
		mem     int64 // Config.MemBudget
		decoded int64 // Config.DecodedBudget
		ranges  int   // Config.SnapshotRanges
	}{
		{"spill+pool", 4096, 6000, 0},
		{"spill+subchunk-pool", 4096, 1000, 0}, // one 256-event chunk decodes to 2,080 bytes
		{"resident+pool", 0, 6000, 0},
		{"spill+pool+snapshot", 4096, 6000, 3},
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, b := range budgets {
			cfg := base
			cfg.Workers = workers
			cfg.MemBudget = b.mem
			cfg.DecodedBudget = b.decoded
			cfg.SnapshotRanges = b.ranges
			label := fmt.Sprintf("%s/workers=%d", b.name, workers)
			got := RunSuite(specs, cfg)
			assertSuitesEqual(t, label, retained, got)
			m := got.Mem
			if b.mem > 0 {
				for _, r := range got.Inputs {
					if r.Mem.ResidentPeak >= r.Mem.RecordedBytes {
						t.Fatalf("%s/%s: streaming kept everything resident (peak %d, recorded %d)",
							label, r.Spec.Name(), r.Mem.ResidentPeak, r.Mem.RecordedBytes)
					}
				}
				if m.PageIns == 0 {
					t.Fatalf("%s: streamed run never paged from its spill", label)
				}
			}
			if b.decoded != 0 && m.DecodedEvicted == 0 {
				t.Fatalf("%s: bounded decoded pool never evicted (mem %+v)", label, m)
			}
			if b.ranges > 1 {
				if m.SnapshotCount == 0 || m.SnapshotBytes == 0 || m.SnapshotPeak == 0 {
					t.Fatalf("%s: checkpointed streamed run took no snapshots (mem %+v)", label, m)
				}
			} else if m.SnapshotCount != 0 {
				t.Fatalf("%s: single-range run took snapshots (mem %+v)", label, m)
			}
		}
	}
}

// TestStreamedCacheRoundTrip pins the streamed recording's cache
// interplay: with a spill directory, a budgeted run writes its
// recording straight into the cache's spill path, and a second context
// (fresh cache over the same directory) replays it bit-identically
// without running any generator.
func TestStreamedCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{testSpec(t, "perl", "primes.pl")}
	mk := func() Config {
		return Config{
			Scale:       testScale,
			ChunkEvents: 256,
			MemBudget:   4096,
			Cache:       trace.NewCache(4096, dir, workload.RegistryFingerprint()),
		}
	}
	first := RunSuite(specs, mk())
	second := RunSuite(specs, mk())
	assertSuitesEqual(t, "streamed-cache-second-run", first, second)
	if second.Mem.PageIns == 0 {
		t.Fatal("second run should have paged the cached spill back in")
	}
	retained := RunSuite(specs, Config{Scale: testScale, ChunkEvents: 256})
	assertSuitesEqual(t, "streamed-cache-vs-retained", retained, first)
}

// TestProfileCacheEviction pins the profile cache's byte budget: a
// budget smaller than two entries keeps only the most recent one,
// counts the eviction, and an evicted input simply recomputes —
// bit-identically — on its next run.
func TestProfileCacheEviction(t *testing.T) {
	spec1 := testSpec(t, "gcc", "genoutput.i")
	spec2 := testSpec(t, "li", "ref.lsp")
	pc := NewProfileCacheBytes(1) // below any entry: every put evicts the previous
	cache := trace.NewCache(0, "", workload.RegistryFingerprint())
	cfg := Config{Scale: testScale, Profiles: pc, Cache: cache}

	first := RunInput(spec1, cfg)
	RunInput(spec2, cfg)
	s := pc.Stats()
	if s.Resident != 1 {
		t.Fatalf("resident entries = %d, want 1 (budget keeps only the newest)", s.Resident)
	}
	if s.Evicted == 0 {
		t.Fatalf("stats %+v: second put must evict the first entry", s)
	}
	if s.ResidentBytes <= 0 {
		t.Fatalf("stats %+v: resident entry not charged", s)
	}

	// spec1 was evicted: its rerun misses the profile cache, recomputes,
	// and must match the original bit for bit.
	misses := pc.Stats().Misses
	again := RunInput(spec1, cfg)
	if pc.Stats().Misses == misses {
		t.Fatal("rerun of the evicted input should have missed the profile cache")
	}
	if first.Exec != again.Exec || first.Miss != again.Miss {
		t.Fatal("recomputed result diverged from the original")
	}

	// A budget with room keeps both and serves hits.
	roomy := NewProfileCacheBytes(1 << 20)
	cfg2 := Config{Scale: testScale, Profiles: roomy, Cache: trace.NewCache(0, "", workload.RegistryFingerprint())}
	RunInput(spec1, cfg2)
	RunInput(spec1, cfg2)
	if s := roomy.Stats(); s.Hits == 0 || s.Evicted != 0 || s.Resident != 1 {
		t.Fatalf("roomy cache stats %+v: want a hit, no evictions", s)
	}
}

// TestBudgetedSweepConvoys pins the convoy: with a decoded budget below
// one chunk, the 34 bank chains must still share each decode. The
// sweep runs its chains breadth-first whenever the pool evicts, so
// every chain passes a chunk while it sits in the pool's transit band,
// and each chunk is re-decoded about once after the attribution pass —
// not once per chain. One worker makes the schedule deterministic; with
// more, an OS-preempted worker can strand its chain behind the band.
func TestBudgetedSweepConvoys(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "li", "ref.lsp"),
	}
	cfg := Config{Scale: testScale, ChunkEvents: 256, MemBudget: 4096, DecodedBudget: 1000, Workers: 1}
	for _, r := range RunSuite(specs, cfg).Inputs {
		chunks := int64(r.Recorded.Chunks())
		if chunks < 8 {
			t.Fatalf("%s: %d chunks, too few to tell a convoy from a chain march", r.Spec.Name(), chunks)
		}
		if m := r.Mem; m.DecodedRedecodes >= 2*chunks {
			t.Fatalf("%s: %d re-decodes over %d chunks, want < %d (mem %+v)",
				r.Spec.Name(), m.DecodedRedecodes, chunks, 2*chunks, m)
		}
	}
}
