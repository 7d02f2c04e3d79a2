package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCheckoutSingleFlight pins the single-flight contract: N
// goroutines first-touching the same chunk at once produce exactly one
// decode, with everyone else sharing the install.
func TestCheckoutSingleFlight(t *testing.T) {
	h := poolHandle(t, 4000, 256)
	const goroutines = 16
	p := NewDecodedPool(h, 0)
	for k := 0; k < h.Chunks(); k++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				d := p.Checkout(k)
				if d.N != chunkLen(h, k) {
					panic("single-flight checkout observed wrong chunk")
				}
				p.Release(k)
			}()
		}
		close(start)
		wg.Wait()
		if s := p.Stats(); s.Decodes != int64(k+1) {
			t.Fatalf("chunk %d: Decodes = %d after %d concurrent first-touches, want %d (one per chunk)",
				k, s.Decodes, goroutines, k+1)
		}
	}
	s := p.Stats()
	if s.Redecodes != 0 {
		t.Fatalf("stats %+v: single-flight must not re-decode", s)
	}
	if want := int64(h.Chunks() * (goroutines - 1)); s.Hits != want {
		t.Fatalf("Hits = %d, want %d (everyone but the decoder)", s.Hits, want)
	}
	if s.InFlightPeak < 1 {
		t.Fatalf("InFlightPeak = %d, want >= 1", s.InFlightPeak)
	}
}

// TestPrefetchWarmsCheckout pins the happy path: prefetched chunks are
// checkout hits, not demand decodes, and each warm install counts as a
// prefetch hit exactly once.
func TestPrefetchWarmsCheckout(t *testing.T) {
	h := poolHandle(t, 4000, 256)
	p := NewDecodedPool(h, 0)
	p.EnablePrefetch(2, h.Chunks()+8)
	for k := 0; k < h.Chunks(); k++ {
		p.Prefetch(k)
	}
	// Wait for the workers to install everything (budget 0 retains all
	// installs, so Decodes converges on the chunk count).
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Decodes < int64(h.Chunks()) {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher stalled: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for k := 0; k < h.Chunks(); k++ {
		d := p.Checkout(k)
		want, err := h.DecodeChunk(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.PCs, want.PCs) || !reflect.DeepEqual(d.Dirs, want.Dirs) {
			t.Fatalf("chunk %d: prefetched columns diverged", k)
		}
		p.Release(k)
	}
	p.ClosePrefetch()
	s := p.Stats()
	if s.Decodes != int64(h.Chunks()) {
		t.Fatalf("Decodes = %d, want %d (prefetch decoded everything once)", s.Decodes, h.Chunks())
	}
	if s.PrefetchHits != int64(h.Chunks()) {
		t.Fatalf("PrefetchHits = %d, want %d", s.PrefetchHits, h.Chunks())
	}
	if s.Hits != int64(h.Chunks()) || s.PrefetchWasted != 0 {
		t.Fatalf("stats %+v: every checkout should hit warm columns", s)
	}
}

// TestPrefetchBudgetBounded pins the O(budget) promise: read-ahead far
// past a tiny budget must not balloon the pool — batch claims are
// capped at what the budget holds and installs evict as they land.
func TestPrefetchBudgetBounded(t *testing.T) {
	h := poolHandle(t, 8000, 256)
	chunkBytes := func() int64 {
		d, err := h.DecodeChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		return d.SizeBytes()
	}()
	budget := 2*chunkBytes + chunkBytes/2
	p := NewDecodedPool(h, budget)
	p.EnablePrefetch(1, 64)
	const ra = 6 // deliberately wider than the budget
	pf := 1
	for k := 0; k < h.Chunks(); k++ {
		hi := k + 1 + ra
		if hi > h.Chunks() {
			hi = h.Chunks()
		}
		if pf <= k {
			pf = k + 1
		}
		for ; pf < hi; pf++ {
			p.Prefetch(pf)
		}
		d := p.Checkout(k)
		if d.N != chunkLen(h, k) {
			t.Fatalf("chunk %d: n=%d want %d", k, d.N, chunkLen(h, k))
		}
		p.Release(k)
	}
	p.ClosePrefetch()
	s := p.Stats()
	// Worst case: the warm set at the budget, the full prefetch-window
	// allowance of spared installs, one pinned demand chunk, and one
	// freshly-installed chunk before its eviction pass.
	if limit := budget + 6*chunkBytes + chunkBytes/2; s.HighWater > limit {
		t.Fatalf("HighWater = %d exceeds budget-bounded limit %d (budget=%d chunk=%d)",
			s.HighWater, limit, budget, chunkBytes)
	}
	if s.PrefetchHits+s.PrefetchWasted == 0 {
		t.Fatalf("stats %+v: the prefetcher never processed a hint", s)
	}
	if s.Evicted == 0 {
		t.Fatalf("stats %+v: want eviction churn", s)
	}
}

// TestPrefetchConcurrentChurn hammers a tiny-budget pool from many
// goroutines issuing both demand checkouts and read-ahead hints
// (meaningful under -race): eviction, prefetch installs and
// single-flight waits race constantly and every checkout must still
// observe the right columns.
func TestPrefetchConcurrentChurn(t *testing.T) {
	h := poolHandle(t, 8000, 256)
	want := make([]DecodedChunk, h.Chunks())
	for k := range want {
		d, err := h.DecodeChunk(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = d
	}
	chunkBytes := want[0].SizeBytes()
	p := NewDecodedPool(h, 2*chunkBytes) // room for ~two chunks: constant churn
	p.EnablePrefetch(2, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for i := 0; i < h.Chunks(); i++ {
					k := (i + 3*g) % h.Chunks() // offset walks desynchronise the goroutines
					p.Prefetch((k + 1) % h.Chunks())
					p.Prefetch((k + 2) % h.Chunks())
					d := p.Checkout(k)
					if d.N != want[k].N || d.PCs[0] != want[k].PCs[0] || d.PCs[d.N-1] != want[k].PCs[want[k].N-1] {
						panic("churning checkout observed wrong columns")
					}
					p.Release(k)
				}
			}
		}()
	}
	wg.Wait()
	p.ClosePrefetch()
	if p.Prefetch(0); false { // post-close Prefetch must be a no-op, not a panic
		t.Fatal("unreachable")
	}
	s := p.Stats()
	if s.Decodes == 0 || s.Evicted == 0 {
		t.Fatalf("stats %+v: churn test should decode and evict", s)
	}
}

// TestDecodeChunkRunMatches pins the coalesced page-in: a run decode
// spanning the resident prefix, the spill, and the file tail must be
// byte-identical to per-chunk decodes.
func TestDecodeChunkRunMatches(t *testing.T) {
	// A small resident budget leaves a few chunks resident and spills
	// the rest, so runs cross the resident/spill boundary.
	sr, err := NewStreamRecorder("", 256, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range syntheticEvents(6000, 17) {
		sr.Branch(ev.PC, ev.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Spilled() {
		t.Fatal("handle did not spill; test needs a spill-backed tail")
	}
	runs := [][2]int{
		{0, h.Chunks()},     // everything, across the boundary
		{1, 3},              // interior
		{h.Chunks() - 2, 2}, // file tail (short last chunk)
		{h.Chunks() - 1, 1}, // single-chunk degenerate case
	}
	for _, r := range runs {
		k0, n := r[0], r[1]
		ds, err := h.DecodeChunkRun(k0, n)
		if err != nil {
			t.Fatalf("DecodeChunkRun(%d, %d): %v", k0, n, err)
		}
		if len(ds) != n {
			t.Fatalf("DecodeChunkRun(%d, %d) returned %d chunks", k0, n, len(ds))
		}
		for i, d := range ds {
			want, err := h.DecodeChunk(k0 + i)
			if err != nil {
				t.Fatal(err)
			}
			if d.N != want.N || d.Base != want.Base ||
				!reflect.DeepEqual(d.PCs[:d.N], want.PCs[:want.N]) ||
				!reflect.DeepEqual(d.Dirs, want.Dirs) {
				t.Fatalf("run (%d,%d) chunk %d diverged from per-chunk decode", k0, n, k0+i)
			}
		}
	}
}

// TestDecodeChunkIntoAllocs pins the pooled page-in buffer: steady-state
// spill decodes with reused column buffers must not allocate per call.
func TestDecodeChunkIntoAllocs(t *testing.T) {
	h := poolHandle(t, 8000, 256)
	// Warm the scratch pool and size the reusable columns off chunk 0
	// (the largest; later chunks fit inside its capacity).
	d, err := h.DecodeChunkInto(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pcs, dirs := d.PCs, d.Dirs
	k := 0
	avg := testing.AllocsPerRun(100, func() {
		d, err := h.DecodeChunkInto(k%h.Chunks(), pcs, dirs)
		if err != nil {
			panic(err)
		}
		pcs, dirs = d.PCs, d.Dirs
		k++
	})
	if avg > 0.5 {
		t.Fatalf("DecodeChunkInto allocates %.1f allocs/op with reused buffers, want 0", avg)
	}
}
