package trace

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is the out-of-core view of one recording: the same chunked
// event stream a ChunkedTrace holds, but whose frames may live in
// memory, in a spill file, or both. A fully resident handle wraps
// an existing trace with zero copying; a spill-backed handle pages
// chunks in on demand and can drop its resident frames (Release)
// without invalidating readers. Replay paths that used to require the
// whole recording in RAM — the simulator's bank sweep, ablation
// replays, CLI audits — read through a Handle instead, so peak memory
// is bounded by what the caller chooses to keep resident.
//
// A Handle is safe for concurrent use. Decoded chunks are immutable
// once returned; releasing residency mid-read only affects where later
// reads come from, never the bytes they see.

// ChunkReader is the sequential chunk-at-a-time replay protocol shared
// by the in-memory Replayer and the handle's paging reader. The
// returned slices stay valid until the next call.
type ChunkReader interface {
	NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool)
}

var _ ChunkReader = (*Replayer)(nil)

// DecodedChunk is one chunk's decoded columns: the PC column, the
// direction bitmap (event i's outcome is bit i&63 of word i>>6), the
// event count, and the chunk's first event index in the stream.
type DecodedChunk struct {
	PCs  []uint64
	Dirs []uint64
	N    int
	Base int64
}

// SizeBytes is the decoded footprint charged against pool budgets.
func (d *DecodedChunk) SizeBytes() int64 {
	return int64(len(d.PCs))*8 + int64(len(d.Dirs))*8
}

// Handle is one recording, resident and/or spill-backed.
type Handle struct {
	chunkEvents  int
	events       int64
	nchunks      int
	encoded      int64 // payload bytes of every frame
	residentPeak int64 // high-water mark of resident frame bytes

	mu   sync.Mutex
	res  *ChunkedTrace // resident chunk prefix (possibly all chunks); nil = none
	path string        // spill file, "" for anonymous temp or memory-only
	f    *os.File      // open spill file, lazily opened from path
	idx  []chunkPos    // per-chunk file positions; nil = memory-only
	sio  SpillIO       // injectable spill file ops; nil = direct

	pageIns     atomic.Int64
	readRetries atomic.Int64
}

// NewResidentHandle wraps an in-memory trace as a fully resident
// handle. No copying: the handle shares the trace's immutable frames.
func NewResidentHandle(tr *ChunkedTrace) *Handle {
	size := tr.SizeBytes()
	return &Handle{
		chunkEvents:  tr.chunkEvents,
		events:       tr.events,
		nchunks:      len(tr.chunks),
		encoded:      size,
		residentPeak: size,
		res:          tr,
	}
}

// OpenSpillHandle opens a BTR3 spill file as a handle with no resident
// frames: one sequential scan builds the chunk index (offsets only — no
// payloads are read), after which chunks page in on demand. A
// structurally damaged or truncated file fails here with an error
// unwrapping to ErrCorruptSpill; a file in another format fails with
// ErrBadMagic.
func OpenSpillHandle(path string, chunkEvents int) (*Handle, error) {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	idx, events, encoded, err := scanSpill(io.NewSectionReader(f, 0, st.Size()), chunkEvents)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Handle{
		chunkEvents: chunkEvents,
		events:      events,
		nchunks:     len(idx),
		encoded:     encoded,
		path:        path,
		f:           f,
		idx:         idx,
	}, nil
}

// Events returns the number of recorded events.
func (h *Handle) Events() int64 { return h.events }

// Chunks returns the number of chunks.
func (h *Handle) Chunks() int { return h.nchunks }

// ChunkEvents returns the chunk granularity.
func (h *Handle) ChunkEvents() int { return h.chunkEvents }

// EncodedBytes returns the footprint the recording's frames occupy when
// resident, resident or not.
func (h *Handle) EncodedBytes() int64 { return h.encoded }

// ResidentBytes returns the bytes of frames currently in memory.
func (h *Handle) ResidentBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res == nil {
		return 0
	}
	return h.res.SizeBytes()
}

// ResidentPeak returns the high-water mark of resident frame bytes
// over the handle's lifetime (for streamed recordings, the bounded
// window; for resident ones, the whole trace).
func (h *Handle) ResidentPeak() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.residentPeak
}

// PageIns returns the cumulative count of chunks re-read from the spill
// file.
func (h *Handle) PageIns() int64 { return h.pageIns.Load() }

// ReadRetries returns the cumulative count of spill reads re-issued
// after a transient I/O error.
func (h *Handle) ReadRetries() int64 { return h.readRetries.Load() }

// SetSpillIO injects the I/O layer the handle's spill page-ins go
// through (nil restores direct file ops). For fault-injection tests.
func (h *Handle) SetSpillIO(sio SpillIO) {
	h.mu.Lock()
	h.sio = sio
	h.mu.Unlock()
}

// spillIO returns the handle's effective I/O layer.
func (h *Handle) spillIO() SpillIO {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sio == nil {
		return defaultSpillIO
	}
	return h.sio
}

// readFull reads len(p) bytes at off, retrying transient failures with
// bounded backoff. A short read with no error (or EOF) surfaces as
// io.ErrUnexpectedEOF — the file is shorter than the index says, which
// is truncation, not a glitch — and is not retried.
func (h *Handle) readFull(f *os.File, p []byte, off int64) error {
	sio := h.spillIO()
	for attempt := 0; ; attempt++ {
		n, err := sio.ReadAt(f, p, off)
		if err == nil && n == len(p) {
			return nil
		}
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if !transientIOError(err) || attempt >= len(spillRetryDelays) {
			return err
		}
		h.readRetries.Add(1)
		time.Sleep(spillRetryDelays[attempt])
	}
}

// Spilled reports whether the recording is backed by a spill file.
func (h *Handle) Spilled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.f != nil || h.path != ""
}

// SpillPath returns the spill file's path ("" for memory-only handles
// and anonymous temp files).
func (h *Handle) SpillPath() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.path
}

// Release drops the resident frames of a spill-backed handle and
// returns the bytes freed; later reads page back in from disk. A
// memory-only handle keeps its frames (dropping them would lose the
// recording) and returns 0.
func (h *Handle) Release() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil && h.path == "" {
		return 0
	}
	if h.res == nil {
		return 0
	}
	freed := h.res.SizeBytes()
	h.res = nil
	return freed
}

// attachSpill records that the recording now also lives at path,
// indexed by idx (a write-through by the cache). The file is opened on
// the first page-in.
func (h *Handle) attachSpill(path string, idx []chunkPos) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.path == "" && h.f == nil {
		h.path, h.idx = path, idx
	}
}

// adoptResident installs tr as the handle's resident frames if it
// currently holds fewer (a re-Put after eviction re-adopts the offered
// trace; recordings are deterministic, so the two are identical).
func (h *Handle) adoptResident(tr *ChunkedTrace) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res == nil || len(h.res.chunks) < h.nchunks {
		h.res = tr
		if s := tr.SizeBytes(); s > h.residentPeak {
			h.residentPeak = s
		}
	}
}

// fileLocked returns the open spill file, opening h.path on first use,
// and its chunk index. Callers must hold h.mu.
func (h *Handle) fileLocked() (*os.File, []chunkPos, error) {
	if h.f == nil {
		if h.path == "" {
			return nil, nil, fmt.Errorf("trace: handle has no spill backing")
		}
		f, err := os.Open(h.path)
		if err != nil {
			return nil, nil, err
		}
		h.f = f
	}
	return h.f, h.idx, nil
}

// DecodeChunk decodes chunk k into fresh columns, from the resident
// frame when k is resident, otherwise paging it from the spill file.
func (h *Handle) DecodeChunk(k int) (DecodedChunk, error) {
	return h.DecodeChunkInto(k, nil, nil)
}

// DecodeChunkInto is DecodeChunk reusing the caller's buffers when
// they are large enough (pass nil to allocate).
func (h *Handle) DecodeChunkInto(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	if k < 0 || k >= h.nchunks {
		return DecodedChunk{}, fmt.Errorf("trace: chunk %d out of range [0,%d)", k, h.nchunks)
	}
	h.mu.Lock()
	res := h.res
	h.mu.Unlock()
	var d DecodedChunk
	var err error
	if res != nil && k < len(res.chunks) {
		d, err = res.chunks[k].decode(k, pcs, dirs)
	} else {
		d, err = h.pageIn(k, pcs, dirs)
	}
	d.Base = int64(k) * int64(h.chunkEvents)
	return d, err
}

// pageIn reads chunk k's frame from the spill file, verifies it and
// decodes it. Every page-in funnels through here, so a damaged chunk is
// detected before a single wrong event reaches a replay.
func (h *Handle) pageIn(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	h.mu.Lock()
	f, idx, err := h.fileLocked()
	h.mu.Unlock()
	if err != nil {
		return DecodedChunk{}, err
	}
	pos := idx[k]
	bp := getPageBuf(pos.plen)
	defer putPageBuf(bp)
	if err := h.readFull(f, *bp, pos.off); err != nil {
		if err == io.ErrUnexpectedEOF {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "spill file shorter than its chunk index (truncated?)"}
		}
		return DecodedChunk{}, fmt.Errorf("trace: paging spill chunk %d: %w", k, err)
	}
	h.pageIns.Add(1)
	c := pos.frame(*bp)
	if err := c.check(k); err != nil {
		return DecodedChunk{}, err
	}
	return c.decode(k, pcs, dirs)
}

// Materialise returns the recording as a fully resident ChunkedTrace,
// reading the spill file if the frames are not already in memory. The
// materialised frames become the handle's resident set.
func (h *Handle) Materialise() (*ChunkedTrace, error) {
	tr, _, err := h.materialise()
	return tr, err
}

// materialise additionally reports whether the spill file was read.
// Frames are copied in as stored, each checksummed and test-decoded on
// the way, so a resident frame never fails to decode.
func (h *Handle) materialise() (*ChunkedTrace, bool, error) {
	h.mu.Lock()
	if h.res != nil && len(h.res.chunks) == h.nchunks {
		tr := h.res
		h.mu.Unlock()
		return tr, false, nil
	}
	f, _, err := h.fileLocked()
	h.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	fr, err := openFrames(io.NewSectionReader(f, 0, math.MaxInt64), h.chunkEvents)
	if err != nil {
		return nil, true, err
	}
	tr := &ChunkedTrace{chunkEvents: h.chunkEvents}
	if err := fr.each(tr.add); err != nil {
		return nil, true, err
	}
	if tr.events != h.events {
		return nil, true, &CorruptError{Path: h.path, Chunk: -1,
			Reason: fmt.Sprintf("spill file holds %d events, handle expects %d", tr.events, h.events)}
	}
	h.pageIns.Add(int64(len(tr.chunks)))

	h.mu.Lock()
	if h.res == nil || len(h.res.chunks) < h.nchunks {
		h.res = tr
		if s := tr.SizeBytes(); s > h.residentPeak {
			h.residentPeak = s
		}
	}
	tr = h.res
	h.mu.Unlock()
	return tr, true, nil
}

// ChunkReader returns a sequential reader over the whole recording:
// resident frames decode from memory, the remainder pages in from the
// spill file. Each reader owns its buffers, so any number may run
// concurrently. Paging errors panic with context (replay interfaces
// have no error path); the simulator converts such panics into
// per-input errors.
func (h *Handle) ChunkReader() ChunkReader {
	return &handleReader{h: h}
}

// handleReader pages through the handle chunk by chunk.
type handleReader struct {
	h    *Handle
	next int
	d    DecodedChunk
}

func (r *handleReader) NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool) {
	if r.next >= r.h.nchunks {
		return nil, nil, 0, false
	}
	d, err := r.h.DecodeChunkInto(r.next, r.d.PCs, r.d.Dirs)
	if err != nil {
		// The panic value is an error wrapping the cause, so a recover
		// further up can errors.Is it (e.g. against ErrCorruptSpill).
		panic(fmt.Errorf("trace: paging chunk %d: %w", r.next, err))
	}
	r.next++
	r.d = d
	return d.PCs, d.Dirs, d.N, true
}

// Replay drives every recorded event through sink, paging spilled
// chunks as needed. Paging errors panic with context, matching
// ChunkReader.
func (h *Handle) Replay(sink Sink) {
	replayChunks(h.ChunkReader(), sink)
}

// Source returns an event-at-a-time view of the recording.
func (h *Handle) Source() Source {
	return &chunkSource{r: h.ChunkReader()}
}
