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

// TestDecodedPoolEvictsAndRedecodes pins the budgeted mode: columns
// past the budget are evicted LRU-first and revisits re-decode.
func TestDecodedPoolEvictsAndRedecodes(t *testing.T) {
	h := poolHandle(t, 4000, 256)
	chunkBytes := func() int64 {
		d, err := h.DecodeChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		return d.SizeBytes()
	}()
	// Room for roughly two chunks.
	p := NewDecodedPool(h, 2*chunkBytes+chunkBytes/2)
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
	if s.HighWater > 3*chunkBytes+chunkBytes/2 {
		t.Fatalf("high water %d far exceeds budget (chunk=%d)", s.HighWater, chunkBytes)
	}
}

// TestDecodedPoolCacheNothing pins the negative budget: columns drop
// at last release, every revisit decodes.
func TestDecodedPoolCacheNothing(t *testing.T) {
	h := poolHandle(t, 2000, 256)
	p := NewDecodedPool(h, -1)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < h.Chunks(); k++ {
			p.Checkout(k)
			p.Release(k)
		}
	}
	s := p.Stats()
	if want := int64(2 * h.Chunks()); s.Decodes != want || s.Evicted != want {
		t.Fatalf("cache-nothing stats %+v: want %d decodes and evictions", s, want)
	}
	if s.Hits != 0 {
		t.Fatalf("Hits = %d, want 0", s.Hits)
	}
}

// TestDecodedPoolPinnedOvershoot pins forward progress: concurrent
// checkouts may pin more than the budget; nothing pinned is evicted.
func TestDecodedPoolPinnedOvershoot(t *testing.T) {
	h := poolHandle(t, 2000, 256)
	p := NewDecodedPool(h, 1) // budget below a single chunk
	var held []*DecodedChunk
	for k := 0; k < h.Chunks(); k++ {
		held = append(held, p.Checkout(k))
	}
	for k := 0; k < h.Chunks(); k++ {
		if held[k] == nil || held[k].N == 0 {
			t.Fatalf("pinned chunk %d lost", k)
		}
		p.Release(k)
	}
	if s := p.Stats(); s.Evicted != int64(h.Chunks()) {
		t.Fatalf("stats %+v: every release past the budget should evict", s)
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
