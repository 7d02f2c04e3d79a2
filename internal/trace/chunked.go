package trace

import (
	"fmt"
	"slices"
)

// In-memory recorded traces for the record-once/replay-many pipeline.
//
// A ChunkedTrace stores a branch stream as BTR3 frames (codec.go): each
// chunk holds its start PC, event count, group-encoded payload and
// checksum — exactly what a spill file stores, so the common event
// costs ~1.1 bytes plus a mask bit. Recording a workload once and
// replaying the chunks is how the simulator drives many predictor
// passes without re-running the generator per pass, and the compact
// frames keep whole Table 1 inputs resident without trace files.

// DefaultChunkEvents is the chunk granularity used when a recorder is
// built with chunkEvents <= 0: big enough to amortise per-chunk overhead,
// small enough that per-replayer decode buffers stay cache-friendly.
const DefaultChunkEvents = 1 << 14

// ChunkedTrace is a sealed in-memory trace. Build one with a ChunkRecorder;
// replay it with NewReplayer (chunk-at-a-time columns, the fast path) or
// Source (event-at-a-time, the generic path). A ChunkedTrace is immutable
// after sealing, so any number of replayers may read it concurrently.
type ChunkedTrace struct {
	chunks      []chunk
	events      int64
	chunkEvents int
}

// add appends a copy of frame c.
func (t *ChunkedTrace) add(c *chunk) {
	kept := *c
	kept.payload = slices.Clone(c.payload)
	t.chunks = append(t.chunks, kept)
	t.events += int64(c.n)
}

// Events returns the number of recorded events.
func (t *ChunkedTrace) Events() int64 { return t.events }

// Chunks returns the number of chunks.
func (t *ChunkedTrace) Chunks() int { return len(t.chunks) }

// SizeBytes returns the approximate heap footprint of the stored frames.
func (t *ChunkedTrace) SizeBytes() int64 { return t.MemStats().EncodedBytes() }

// ChunkStats summarises a recording's frame encoding, for trace audits
// (brtrace) and cache accounting.
type ChunkStats struct {
	Chunks     int   // sealed chunks
	Events     int64 // recorded events
	DeltaBytes int64 // zigzag-varint PC delta bytes
	MaskBytes  int64 // direction mask bytes, one per group of 8 events
}

// add accounts for one frame.
func (s *ChunkStats) add(c *chunk) {
	masks := int64(c.n+groupSize-1) / groupSize
	s.Chunks++
	s.Events += int64(c.n)
	s.MaskBytes += masks
	s.DeltaBytes += int64(len(c.payload)) - masks
}

// EncodedBytes is the total payload footprint.
func (s ChunkStats) EncodedBytes() int64 { return s.DeltaBytes + s.MaskBytes }

// BytesPerEvent is the mean encoded cost of one event (0 when empty).
func (s ChunkStats) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.EncodedBytes()) / float64(s.Events)
}

// String renders a one-line summary.
func (s ChunkStats) String() string {
	return fmt.Sprintf("chunks=%d events=%d encoded_bytes=%d (deltas=%d masks=%d) bytes/event=%.2f",
		s.Chunks, s.Events, s.EncodedBytes(), s.DeltaBytes, s.MaskBytes, s.BytesPerEvent())
}

// MemStats reports the trace's in-memory encoding statistics.
func (t *ChunkedTrace) MemStats() ChunkStats {
	var s ChunkStats
	for i := range t.chunks {
		s.add(&t.chunks[i])
	}
	return s
}

// ChunkStatsSink measures what a ChunkRecorder would hold resident for
// a stream — it is the same frame encoder with every payload discarded
// once counted — so arbitrarily large traces audit in O(1) memory. It
// implements Sink; read the result with Stats.
type ChunkStatsSink struct {
	frameEncoder
	s ChunkStats
}

// NewChunkStatsSink returns a sink modelling a recorder with the given
// chunk granularity (<= 0 means DefaultChunkEvents).
func NewChunkStatsSink(chunkEvents int) *ChunkStatsSink {
	s := &ChunkStatsSink{}
	s.frameEncoder = newFrameEncoder(chunkEvents, s.s.add)
	return s
}

// Stats returns the accumulated statistics, counting the open frame as
// a recorder's Trace would seal it.
func (s *ChunkStatsSink) Stats() ChunkStats {
	st := s.s
	if s.cur.n > 0 {
		st.add(&s.cur)
	}
	return st
}

// ChunkRecorder is a Sink that records a stream into a ChunkedTrace.
// It is single-writer; call Trace exactly once after the stream ends.
type ChunkRecorder struct {
	frameEncoder
	tr ChunkedTrace
}

var _ Sink = (*ChunkRecorder)(nil)

// NewChunkRecorder returns a recorder cutting chunks every chunkEvents
// events (<= 0 means DefaultChunkEvents).
func NewChunkRecorder(chunkEvents int) *ChunkRecorder {
	r := &ChunkRecorder{}
	r.frameEncoder = newFrameEncoder(chunkEvents, r.tr.add)
	r.tr.chunkEvents = r.chunkEvents
	return r
}

// Trace seals the recorder (flushing any partial final chunk) and returns
// the recorded trace. Further Branch calls panic.
func (r *ChunkRecorder) Trace() *ChunkedTrace {
	if !r.sealed {
		r.close()
	}
	return &r.tr
}

// Replayer decodes a ChunkedTrace chunk by chunk into reusable column
// buffers. Each replayer owns its buffers, so independent goroutines can
// replay the same trace concurrently with one decode each.
type Replayer struct {
	t  *ChunkedTrace
	ci int
	d  DecodedChunk
}

// NewReplayer returns a replayer positioned at the first chunk.
func (t *ChunkedTrace) NewReplayer() *Replayer {
	return &Replayer{t: t}
}

// NextChunk decodes the next chunk and returns its PC column, direction
// bitmap (event i's outcome is bit i&63 of word i>>6), and event count.
// ok is false once the trace is exhausted. Both slices are owned by the
// replayer and overwritten by the next call.
func (r *Replayer) NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool) {
	if r.ci >= len(r.t.chunks) {
		return nil, nil, 0, false
	}
	d, err := r.t.chunks[r.ci].decode(r.ci, r.d.PCs, r.d.Dirs)
	if err != nil {
		panic(err) // resident frames come from the encoder or a checked read
	}
	r.ci++
	r.d = d
	return d.PCs, d.Dirs, d.N, true
}

// Reset rewinds the replayer to the first chunk.
func (r *Replayer) Reset() { r.ci = 0 }

// Replay drives every recorded event through sink, in order.
func (t *ChunkedTrace) Replay(sink Sink) {
	replayChunks(t.NewReplayer(), sink)
}

// replayChunks drives every event r yields through sink.
func replayChunks(r ChunkReader, sink Sink) {
	for {
		pcs, dirs, n, ok := r.NextChunk()
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			sink.Branch(pcs[i], dirs[i>>6]&(1<<(uint(i)&63)) != 0)
		}
	}
}

// Source returns an event-at-a-time view of the trace.
func (t *ChunkedTrace) Source() Source {
	return &chunkSource{r: t.NewReplayer()}
}

type chunkSource struct {
	r    ChunkReader
	pcs  []uint64
	dirs []uint64
	n    int
	i    int
}

func (s *chunkSource) Next() (Event, bool, error) {
	for s.i >= s.n {
		pcs, dirs, n, ok := s.r.NextChunk()
		if !ok {
			return Event{}, false, nil
		}
		s.pcs, s.dirs, s.n, s.i = pcs, dirs, n, 0
	}
	i := s.i
	s.i++
	return Event{PC: s.pcs[i], Taken: s.dirs[i>>6]&(1<<(uint(i)&63)) != 0}, true, nil
}
