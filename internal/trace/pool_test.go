package trace

import (
	"reflect"
	"sync"
	"testing"
)

// poolHandle builds a spill-backed handle with nothing resident, so
// every first decode is a page-in.
func poolHandle(t *testing.T, n, chunkEvents int) *Handle {
	t.Helper()
	sr, err := NewStreamRecorder("", chunkEvents, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range syntheticEvents(n, 17) {
		sr.Branch(ev.PC, ev.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// chunkLen is chunk k's event count: full chunks, then the remainder.
func chunkLen(h *Handle, k int) int {
	return int(min(int64(h.ChunkEvents()), h.Events()-int64(k)*int64(h.ChunkEvents())))
}

// TestDecodedPoolUnlimited pins budget 0: decode once, retain forever.
func TestDecodedPoolUnlimited(t *testing.T) {
	h := poolHandle(t, 4000, 256)
	p := NewDecodedPool(h, 0)
	for pass := 0; pass < 3; pass++ {
		for k := 0; k < h.Chunks(); k++ {
			d := p.Checkout(k)
			if d.N != chunkLen(h, k) || d.Base != int64(k)*256 {
				t.Fatalf("chunk %d: n=%d base=%d", k, d.N, d.Base)
			}
			p.Release(k)
		}
	}
	s := p.Stats()
	if s.Decodes != int64(h.Chunks()) || s.Redecodes != 0 || s.Evicted != 0 {
		t.Fatalf("unlimited pool stats %+v: want one decode per chunk, no re-decodes", s)
	}
	if s.Hits != int64(2*h.Chunks()) {
		t.Fatalf("Hits = %d, want %d", s.Hits, 2*h.Chunks())
	}
}

// chunkBytes is the decoded size of h's first (full) chunk.
func chunkBytes(t *testing.T, h *Handle) int64 {
	t.Helper()
	d, err := h.DecodeChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	return d.SizeBytes()
}

// poolBound is the budgeted pool's documented peak: budget, plus the
// transit band, plus the chunks pinned at once.
func poolBound(budget, chunk int64, pinned int) int64 {
	return budget + (transitBandChunks+int64(pinned))*chunk
}

// TestDecodedPoolEvictsAndRedecodes pins the budgeted mode: columns
// past budget + band are evicted LRU-first and revisits re-decode.
func TestDecodedPoolEvictsAndRedecodes(t *testing.T) {
	h := poolHandle(t, 4000, 256)
	chunk := chunkBytes(t, h)
	budget := 2*chunk + chunk/2
	p := NewDecodedPool(h, budget)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < h.Chunks(); k++ {
			d := p.Checkout(k)
			want, err := h.DecodeChunk(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.PCs, want.PCs) || !reflect.DeepEqual(d.Dirs, want.Dirs) {
				t.Fatalf("pass %d chunk %d: columns diverged", pass, k)
			}
			p.Release(k)
		}
	}
	s := p.Stats()
	if s.Redecodes == 0 || s.Evicted == 0 {
		t.Fatalf("budgeted pool stats %+v: want evictions and re-decodes", s)
	}
	if limit := poolBound(budget, chunk, 1); s.HighWater > limit {
		t.Fatalf("high water %d exceeds budget + band + one pinned chunk = %d (chunk=%d)", s.HighWater, limit, chunk)
	}
}

// TestDecodedPoolBudgetBounded pins the pool's one bound on the demand
// path: with G goroutines each holding at most one chunk, the resident
// peak never passes budget + band + G chunks, and a budget far below
// the walk's footprint forces eviction churn.
func TestDecodedPoolBudgetBounded(t *testing.T) {
	h := poolHandle(t, 8000, 256)
	chunk := chunkBytes(t, h)
	budget := 2*chunk + chunk/2
	p := NewDecodedPool(h, budget)
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < h.Chunks(); i++ {
					k := (i + 5*g) % h.Chunks()
					if d := p.Checkout(k); d.N != chunkLen(h, k) {
						panic("bounded checkout observed wrong chunk")
					}
					p.Release(k)
				}
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if limit := poolBound(budget, chunk, goroutines); s.HighWater > limit {
		t.Fatalf("HighWater = %d exceeds budget + band + %d pinned chunks = %d (budget=%d chunk=%d)",
			s.HighWater, goroutines, limit, budget, chunk)
	}
	if s.Evicted == 0 || s.Redecodes == 0 {
		t.Fatalf("stats %+v: want eviction churn", s)
	}
}

// TestDecodedPoolPinnedOvershoot pins forward progress: concurrent
// checkouts may pin more than the budget; nothing pinned is evicted,
// and once everything is released the pool is back within budget +
// band.
func TestDecodedPoolPinnedOvershoot(t *testing.T) {
	h := poolHandle(t, 2000, 256)
	chunk := chunkBytes(t, h)
	p := NewDecodedPool(h, 1) // budget below a single chunk
	var held []*DecodedChunk
	for k := 0; k < h.Chunks(); k++ {
		held = append(held, p.Checkout(k))
	}
	if s := p.Stats(); s.HighWater <= poolBound(1, chunk, 0) {
		t.Fatalf("stats %+v: pinning every chunk should overshoot budget + band", s)
	}
	for k := 0; k < h.Chunks(); k++ {
		if held[k] == nil || held[k].N == 0 {
			t.Fatalf("pinned chunk %d lost", k)
		}
		p.Release(k)
	}
	s := p.Stats()
	if s.Evicted == 0 {
		t.Fatalf("stats %+v: releases past budget + band should evict", s)
	}
	p.mu.Lock()
	resident := p.bytes
	p.mu.Unlock()
	if limit := poolBound(1, chunk, 0); resident > limit {
		t.Fatalf("%d bytes resident after every release, want <= budget + band = %d", resident, limit)
	}
}

// TestDecodedPoolConcurrent hammers one pool from many goroutines
// (meaningful under -race): every checkout must observe the right
// columns regardless of eviction races.
func TestDecodedPoolConcurrent(t *testing.T) {
	h := poolHandle(t, 8000, 256)
	want := make([]DecodedChunk, h.Chunks())
	for k := range want {
		d, err := h.DecodeChunk(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = d
	}
	p := NewDecodedPool(h, 3000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for i := 0; i < h.Chunks(); i++ {
					k := (i + g) % h.Chunks() // offset walks desynchronise the goroutines
					d := p.Checkout(k)
					if d.N != want[k].N || d.PCs[0] != want[k].PCs[0] || d.PCs[d.N-1] != want[k].PCs[want[k].N-1] {
						panic("concurrent checkout observed wrong columns")
					}
					p.Release(k)
				}
			}
		}()
	}
	wg.Wait()
}

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
