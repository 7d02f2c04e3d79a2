package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Spill-file machinery for out-of-core recordings: BTR3 files are the
// paging store behind a Handle. A spill file stores exactly the frames
// a resident ChunkedTrace holds (codec.go), so writing one copies
// frames out verbatim, reading one back copies them in, and random
// access is one bounded ReadAt per frame with the frame checksum
// verified on every page-in.

// spillWriter writes a BTR3 stream frame by frame, indexing each
// frame's payload position as it goes. Write errors are sticky;
// finish reports them.
type spillWriter struct {
	w       io.Writer
	off     int64 // bytes written
	idx     []chunkPos
	events  int64
	encoded int64 // payload bytes
	err     error
}

// newSpillWriter writes the BTR3 header for the given granularity.
func newSpillWriter(w io.Writer, chunkEvents int) (*spillWriter, error) {
	hdr := binary.AppendUvarint(magic3[:], uint64(chunkEvents))
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: writing spill header: %w", err)
	}
	return &spillWriter{w: w, off: int64(len(hdr))}, nil
}

// frame writes c: header fields, checksum, payload.
func (s *spillWriter) frame(c *chunk) {
	s.events += int64(c.n)
	if s.err != nil {
		return
	}
	var buf [3*binary.MaxVarintLen64 + 4]byte
	hdr := binary.LittleEndian.AppendUint32(c.header(buf[:0]), c.crc)
	if _, err := s.w.Write(hdr); err != nil {
		s.err = fmt.Errorf("trace: writing spill chunk frame: %w", err)
		return
	}
	if _, err := s.w.Write(c.payload); err != nil {
		s.err = fmt.Errorf("trace: writing spill chunk payload: %w", err)
		return
	}
	s.off += int64(len(hdr))
	s.idx = append(s.idx, chunkPos{off: s.off, plen: len(c.payload), n: c.n, startPC: c.startPC, crc: c.crc})
	s.off += int64(len(c.payload))
	s.encoded += int64(len(c.payload))
}

// finish writes the end-of-stream trailer, after which truncation
// anywhere in the file is detectable.
func (s *spillWriter) finish() error {
	if s.err != nil {
		return s.err
	}
	tr := binary.AppendUvarint([]byte{0}, uint64(s.events))
	if _, err := s.w.Write(tr); err != nil {
		return fmt.Errorf("trace: writing spill trailer: %w", err)
	}
	return nil
}

// writeSpill writes the trace's frames verbatim as a BTR3 file, via a
// temp file, fsync and rename: a process killed at any point leaves
// either the complete file or a stray .tmp that no probe ever opens —
// never a torn .btr. It returns the file's chunk index.
func writeSpill(path string, tr *ChunkedTrace) ([]chunkPos, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	sw, err := newSpillWriter(bw, tr.chunkEvents)
	if err == nil {
		for i := range tr.chunks {
			sw.frame(&tr.chunks[i])
		}
		err = sw.finish()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	return sw.idx, nil
}

// scanSpill walks a spill stream once, building the chunk index without
// reading payloads, and reports the event count and payload bytes. The
// granularity must match the file's. Checksums are deferred to page-in
// (the scan is the cheap open path), but frame structure and the
// trailer are verified, so a truncated file fails here.
func scanSpill(r io.Reader, chunkEvents int) (idx []chunkPos, events, encoded int64, err error) {
	fr, err := openFrames(r, chunkEvents)
	if err != nil {
		return nil, 0, 0, err
	}
	for {
		pos, ok, err := fr.next()
		if err != nil {
			return nil, 0, 0, err
		}
		if !ok {
			return idx, fr.events, encoded, nil
		}
		if err := fr.skip(pos); err != nil {
			return nil, 0, 0, err
		}
		idx = append(idx, pos)
		encoded += int64(pos.plen)
	}
}

// pageBufPool recycles the scratch buffers spill page-ins read frames
// into. The decode copies everything it needs into the chunk's
// columns, so the buffer never outlives the call and steady-state
// streaming does zero per-page-in allocations.
var pageBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getPageBuf returns a pooled scratch buffer of length n.
func getPageBuf(n int) *[]byte {
	bp := pageBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putPageBuf(bp *[]byte) { pageBufPool.Put(bp) }

// pageIn verifies and decodes chunk k from buf, which starts at the
// chunk's payload offset. Every page-in funnels through here,
// single-chunk and coalesced reads alike, so a damaged chunk is
// detected before a single wrong event reaches a replay.
func pageIn(buf []byte, pos chunkPos, k int, pcs, dirs []uint64) (DecodedChunk, error) {
	if len(buf) < pos.plen {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk payload extends past end of file"}
	}
	c := pos.frame(buf[:pos.plen])
	if err := c.check(k); err != nil {
		return DecodedChunk{}, err
	}
	return c.decode(k, pcs, dirs)
}

// faultWriter adapts a SpillIO's Write to io.Writer for one file, so a
// bufio.Writer (and the spill writer above it) flushes through the
// injectable layer.
type faultWriter struct {
	f   *os.File
	sio SpillIO
}

func (fw faultWriter) Write(p []byte) (int, error) { return fw.sio.Write(fw.f, p) }

// StreamRecorder is a Sink that writes a recording straight to a BTR3
// spill file as events arrive, keeping at most a bounded prefix of
// frames resident — the out-of-core replacement for recording into a
// ChunkRecorder and spilling afterwards, with peak memory O(budget)
// instead of O(trace). Each frame is encoded once: written to the file
// and, while the prefix is under budget, retained as it is. Seal
// returns the finished recording as a Handle whose resident prefix
// serves the hot head of replays and whose remainder pages back in
// from the file it just wrote.
//
// With path == "" the recorder writes an anonymous temp file (unlinked
// immediately; the open descriptor keeps it readable), so a bounded
// run without a cache directory leaves nothing behind. With a path the
// file is written via temp, fsync and rename, landing exactly where the
// trace cache's spill probe will find it — and never as a torn .btr.
//
// The resident budget is a target, not a hard wall: retention stops at
// the first chunk boundary past it, so the prefix may overshoot by up
// to one chunk. residentBudget <= 0 retains nothing.
type StreamRecorder struct {
	frameEncoder

	f         *os.File
	bw        *bufio.Writer
	tmpPath   string
	finalPath string
	sio       SpillIO

	sw        *spillWriter
	budget    int64
	prefix    *ChunkedTrace // retained leading frames
	retained  int64         // their payload bytes
	retaining bool
}

var _ Sink = (*StreamRecorder)(nil)

// NewStreamRecorder opens a streaming recorder writing to path (or an
// anonymous temp file when path is ""), cutting chunks every
// chunkEvents events (<= 0 means DefaultChunkEvents) and keeping about
// residentBudget bytes of leading frames in memory.
func NewStreamRecorder(path string, chunkEvents int, residentBudget int64) (*StreamRecorder, error) {
	return NewStreamRecorderIO(path, chunkEvents, residentBudget, nil)
}

// NewStreamRecorderIO is NewStreamRecorder with an injectable I/O layer
// (nil means direct file ops). The handle Seal returns inherits it, so
// a fault schedule covers the recording's page-ins too.
func NewStreamRecorderIO(path string, chunkEvents int, residentBudget int64, sio SpillIO) (*StreamRecorder, error) {
	if sio == nil {
		sio = defaultSpillIO
	}
	s := &StreamRecorder{budget: residentBudget, finalPath: path, sio: sio, retaining: residentBudget > 0}
	s.frameEncoder = newFrameEncoder(chunkEvents, s.emitFrame)
	s.prefix = &ChunkedTrace{chunkEvents: s.chunkEvents}
	var err error
	if path == "" {
		s.f, err = os.CreateTemp("", "btr-stream-*.btr")
		if err != nil {
			return nil, err
		}
		// Unlink immediately: the descriptor keeps the file readable and
		// the OS reclaims it when the handle is garbage, crash included.
		os.Remove(s.f.Name())
	} else {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		s.f, err = os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
		if err != nil {
			return nil, err
		}
		s.tmpPath = s.f.Name()
	}
	s.bw = bufio.NewWriterSize(faultWriter{f: s.f, sio: sio}, 1<<16)
	if s.sw, err = newSpillWriter(s.bw, s.chunkEvents); err != nil {
		s.Discard()
		return nil, err
	}
	return s, nil
}

// emitFrame writes one sealed frame and retains it while the prefix is
// within budget, stopping at the first boundary past it.
func (s *StreamRecorder) emitFrame(c *chunk) {
	s.sw.frame(c)
	if s.retaining {
		s.prefix.add(c)
		s.retained += int64(len(c.payload))
		s.retaining = s.retained <= s.budget
	}
}

// Events returns the number of events streamed so far.
func (s *StreamRecorder) Events() int64 { return s.sw.events + int64(s.cur.n) }

// Seal flushes the final chunk and trailer, syncs and lands the file
// (temp-and-rename for named paths) and returns the recording as a
// Handle: resident prefix in memory, everything else paged from the
// file on demand. Call it exactly once; a failed Seal cleans up after
// itself.
func (s *StreamRecorder) Seal() (*Handle, error) {
	if s.sealed {
		panic("trace: sealing a sealed StreamRecorder")
	}
	s.close()
	err := s.sw.finish()
	if err == nil {
		err = s.bw.Flush()
	}
	if err == nil {
		if serr := s.sio.Sync(s.f); serr != nil {
			err = fmt.Errorf("trace: syncing spill file: %w", serr)
		}
	}
	if err != nil {
		s.Discard()
		return nil, err
	}

	path := ""
	if s.tmpPath != "" {
		if err := os.Rename(s.tmpPath, s.finalPath); err != nil {
			// The unlinked temp still backs the open descriptor, so the
			// recording survives as an anonymous handle; only the durable
			// path is lost.
			os.Remove(s.tmpPath)
		} else {
			path = s.finalPath
		}
		s.tmpPath = ""
	}

	prefix := s.prefix
	if len(prefix.chunks) == 0 {
		prefix = nil
	}
	return &Handle{
		chunkEvents:  s.chunkEvents,
		events:       s.sw.events,
		nchunks:      len(s.sw.idx),
		encoded:      s.sw.encoded,
		residentPeak: s.retained,
		res:          prefix,
		path:         path,
		f:            s.f,
		idx:          s.sw.idx,
		sio:          s.sio,
	}, nil
}

// Discard abandons the recording, closing and removing any file the
// recorder created. Safe to call after a failed Seal or on an
// abandoned recorder; a successful Seal hands the file to the Handle
// and Discard must not be called.
func (s *StreamRecorder) Discard() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if s.tmpPath != "" {
		os.Remove(s.tmpPath)
		s.tmpPath = ""
	}
	s.sealed = true
}
