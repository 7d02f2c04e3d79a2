package trace

import (
	"fmt"
	"sync"
)

// DecodedPool is a byte-budgeted LRU cache of decoded chunk columns
// over one recording Handle. Sweep tasks check chunks out (decoding on
// miss, possibly paging from the spill file) and release them when the
// range is done; the pool retains released columns so other tasks
// visiting the same chunk reuse the decode, and evicts the
// least-recently-released columns past its limit — trading re-decode
// work for a bounded decoded footprint, which is what lets a (slot ×
// chunk-range) sweep over a paper-scale recording run in fixed memory.
//
// Budget semantics:
//
//	0   retain every decoded chunk for the pool's lifetime (decode
//	    once, keep all columns);
//	> 0 byte budget plus a transit band of transitBandChunks chunks:
//	    released columns are evicted LRU-first once the resident bytes
//	    pass budget + band. The band is sized for the convoyed sweep,
//	    whose 34 chains visit each chunk moments apart: the chunk one
//	    chain just released is the chunk its siblings need next, so it
//	    must survive even when one chunk alone exceeds the budget.
//	    Checked-out chunks are pinned and may overshoot the limit
//	    (forward progress beats the bound), so the resident peak is at
//	    most budget + band + the chunks pinned at once.
//
// Negative budgets are invalid.
//
// Concurrent first touches of one chunk are single-flighted: the first
// goroutine decodes, the rest wait on the flight and share the install,
// so a chunk is never decoded twice at once.
//
// A DecodedPool is safe for concurrent use. Checked-out chunks are
// immutable; a chunk stays valid until its matching Release, even if
// the pool evicts it for other callers in between.
type DecodedPool struct {
	h     *Handle
	limit int64 // eviction threshold: budget + band; 0 = never evict

	mu    sync.Mutex
	slots []poolSlot
	// lruHead/lruTail link the unpinned resident slots oldest-first,
	// so eviction is O(1) per victim regardless of chunk count.
	lruHead, lruTail int
	bytes            int64 // resident decoded bytes (pinned + cached)
	stats            DecodedPoolStats
	highWater        int64
}

// poolSlot tracks one chunk's pool state. prev/next are LRU links
// (chunk indices, -1 = none), valid only while linked. flight is the
// slot's in-progress decode, closed when it settles — successfully or
// not — so waiters re-check rather than decoding the same chunk twice.
type poolSlot struct {
	d          *DecodedChunk
	refs       int32
	size       int64
	prev, next int
	linked     bool
	decoded    bool // decoded at least once (for the re-decode counter)
	flight     chan struct{}
}

// DecodedPoolStats counts pool traffic. HighWater is the peak resident
// decoded bytes; Redecodes counts decodes beyond each chunk's first —
// the work the budget trades memory for.
type DecodedPoolStats struct {
	Hits      int64
	Decodes   int64
	Redecodes int64
	Evicted   int64
	HighWater int64
}

// transitBandChunks is the transit band: how many chunks' worth of
// released columns a budgeted pool keeps past its byte budget.
const transitBandChunks = 4

// NewDecodedPool builds a pool over h with the given byte budget
// (0 = retain everything; see DecodedPool). It panics on a negative
// budget.
func NewDecodedPool(h *Handle, budget int64) *DecodedPool {
	if budget < 0 {
		panic(fmt.Sprintf("trace: negative decoded-pool budget %d", budget))
	}
	limit := budget
	if budget > 0 {
		ce := int64(h.ChunkEvents())
		limit += transitBandChunks * (ce*8 + (ce+63)/64*8)
	}
	return &DecodedPool{h: h, limit: limit, slots: make([]poolSlot, h.Chunks()), lruHead: -1, lruTail: -1}
}

// Checkout returns chunk k's decoded columns, pinned until the
// matching Release. Decode (and any spill page-in) happens outside the
// pool lock; concurrent first-touches single-flight on the slot, so
// exactly one goroutine decodes and the rest share the install.
// Paging errors panic with context, like Handle replays.
func (p *DecodedPool) Checkout(k int) *DecodedChunk {
	p.mu.Lock()
	for {
		s := &p.slots[k]
		if s.d != nil {
			if s.linked {
				p.unlinkLocked(k)
			}
			s.refs++
			p.stats.Hits++
			d := s.d
			p.mu.Unlock()
			return d
		}
		if s.flight != nil {
			// A sibling chain is already decoding this chunk: wait for the
			// flight to settle and re-check. The install may fail or be
			// evicted before we re-acquire the lock, hence the loop.
			done := s.flight
			p.mu.Unlock()
			<-done
			p.mu.Lock()
			continue
		}
		s.flight = make(chan struct{})
		break
	}
	p.mu.Unlock()

	d, err := p.h.DecodeChunk(k)

	p.mu.Lock()
	s := &p.slots[k]
	close(s.flight)
	s.flight = nil
	if err != nil {
		// The flight is settled first so waiters unblock (they re-claim,
		// hit the same error, and panic with the same context). The panic
		// value is an error wrapping the cause, so recovery at the sweep
		// layer can classify it (errors.Is ErrCorruptSpill).
		p.mu.Unlock()
		panic(fmt.Errorf("trace: decoding chunk %d: %w", k, err))
	}
	p.stats.Decodes++
	if s.decoded {
		p.stats.Redecodes++
	}
	s.decoded = true
	s.d = &d
	s.size = d.SizeBytes()
	s.refs++
	p.bytes += s.size
	p.highWater = max(p.highWater, p.bytes)
	p.mu.Unlock()
	return &d
}

// Release unpins chunk k. In a budgeted pool the chunk joins the LRU
// list at its MRU end and columns past budget + band are evicted
// oldest-first.
func (p *DecodedPool) Release(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.slots[k]
	if s.refs <= 0 {
		panic(fmt.Sprintf("trace: releasing chunk %d that is not checked out", k))
	}
	s.refs--
	if s.refs > 0 || p.limit == 0 {
		return
	}
	p.linkLocked(k)
	for p.bytes > p.limit && p.lruHead >= 0 {
		victim := &p.slots[p.lruHead]
		p.unlinkLocked(p.lruHead)
		p.bytes -= victim.size
		victim.d = nil
		victim.size = 0
		p.stats.Evicted++
	}
}

// linkLocked appends chunk k at the MRU tail of the unpinned list.
func (p *DecodedPool) linkLocked(k int) {
	s := &p.slots[k]
	s.linked = true
	s.prev, s.next = p.lruTail, -1
	if p.lruTail >= 0 {
		p.slots[p.lruTail].next = k
	} else {
		p.lruHead = k
	}
	p.lruTail = k
}

// unlinkLocked removes chunk k from the unpinned list.
func (p *DecodedPool) unlinkLocked(k int) {
	s := &p.slots[k]
	if s.prev >= 0 {
		p.slots[s.prev].next = s.next
	} else {
		p.lruHead = s.next
	}
	if s.next >= 0 {
		p.slots[s.next].prev = s.prev
	} else {
		p.lruTail = s.prev
	}
	s.linked = false
}

// Stats returns a snapshot of the pool counters.
func (p *DecodedPool) Stats() DecodedPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.HighWater = p.highWater
	return s
}

// Reader returns a sequential ChunkReader over the pool's whole
// recording that checks each chunk out of the pool. The previous chunk
// is released on the next NextChunk call, matching the interface's
// ownership contract.
func (p *DecodedPool) Reader() ChunkReader {
	return &poolReader{p: p, cur: -1}
}

// poolReader is the sequential pooled replay behind DecodedPool.Reader.
type poolReader struct {
	p    *DecodedPool
	cur  int // checked-out chunk, released on the next call; -1 = none
	next int
}

func (r *poolReader) NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool) {
	if r.cur >= 0 {
		r.p.Release(r.cur)
		r.cur = -1
	}
	if r.next >= r.p.h.Chunks() {
		return nil, nil, 0, false
	}
	d := r.p.Checkout(r.next)
	r.cur = r.next
	r.next++
	return d.PCs, d.Dirs, d.N, true
}
