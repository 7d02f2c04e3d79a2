package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Spill-file machinery for out-of-core recordings: BTR files double as
// the paging store behind a Handle. New spill files are written in the
// checksummed BTR2 chunk-frame format (codec.go), whose frames map 1:1
// onto the handle's chunks — random access is one bounded ReadAt per
// frame, and the frame checksum is verified on every page-in. Legacy
// BTR1 files remain readable: their self-delimiting group stream needs
// a sequential scan to build a chunk index (chunkPos), after which
// chunks decode from group spans, with structural checks but no
// checksums.

// spillEncoder streams events into BTR2 chunk frames on an io.Writer,
// tracking the chunk index as it goes. It is the shared encoding core
// of writeSpill (whole trace at once) and StreamRecorder (out-of-core,
// event at a time).
type spillEncoder struct {
	w           io.Writer
	chunkEvents int

	off          int64 // bytes emitted: header + completed frames
	idx          []chunkPos
	groupMask    byte
	groupDeltas  []byte
	np           int // events pending in the current group
	lastPC       uint64
	chunkStartPC uint64
	chunkN       int    // events in the open chunk
	chunkBuf     []byte // the open chunk's encoded groups
	events       int64
	deltaBytes   int64

	err error
}

// newSpillEncoder writes the BTR2 header and returns an encoder cutting
// frames every chunkEvents events (<= 0 means DefaultChunkEvents).
func newSpillEncoder(w io.Writer, chunkEvents int) (*spillEncoder, error) {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	e := &spillEncoder{w: w, chunkEvents: chunkEvents}
	var hdr [4 + binary.MaxVarintLen64]byte
	copy(hdr[:], magic2[:])
	n := 4 + binary.PutUvarint(hdr[4:], uint64(chunkEvents))
	if _, err := w.Write(hdr[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing spill header: %w", err)
	}
	e.off = int64(n)
	return e, nil
}

// Branch encodes one event. Write errors are sticky; finish reports them.
func (e *spillEncoder) Branch(pc uint64, taken bool) {
	if e.err != nil {
		return
	}
	if e.chunkN == 0 {
		e.chunkStartPC = e.lastPC
	}
	if taken {
		e.groupMask |= 1 << uint(e.np)
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], zigzag(int64(pc-e.lastPC)))
	e.groupDeltas = append(e.groupDeltas, scratch[:n]...)
	e.deltaBytes += int64(n)
	e.lastPC = pc
	e.np++
	e.chunkN++
	e.events++
	if e.np == groupSize {
		e.emitGroup()
	}
	if e.chunkN == e.chunkEvents {
		e.flushChunk()
	}
}

// emitGroup appends the pending (possibly short) group to the open
// chunk's payload. Short groups only ever end a chunk: Branch emits at
// every 8th event, and flushChunk drains the remainder.
func (e *spillEncoder) emitGroup() {
	if e.np == 0 {
		return
	}
	e.chunkBuf = append(e.chunkBuf, e.groupMask)
	e.chunkBuf = append(e.chunkBuf, e.groupDeltas...)
	e.np = 0
	e.groupMask = 0
	e.groupDeltas = e.groupDeltas[:0]
}

// flushChunk frames and writes the open chunk: header (event count,
// payload length, chaining PC, CRC32C), then the payload.
func (e *spillEncoder) flushChunk() {
	if e.err != nil || e.chunkN == 0 {
		return
	}
	e.emitGroup()
	sum := crc32.Checksum(e.chunkBuf, castagnoli)
	var hdr [3*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(e.chunkN))
	n += binary.PutUvarint(hdr[n:], uint64(len(e.chunkBuf)))
	n += binary.PutUvarint(hdr[n:], e.chunkStartPC)
	binary.LittleEndian.PutUint32(hdr[n:], sum)
	n += 4
	if _, err := e.w.Write(hdr[:n]); err != nil {
		e.err = fmt.Errorf("trace: writing spill chunk frame: %w", err)
		return
	}
	if _, err := e.w.Write(e.chunkBuf); err != nil {
		e.err = fmt.Errorf("trace: writing spill chunk payload: %w", err)
		return
	}
	e.idx = append(e.idx, chunkPos{
		off:     e.off + int64(n),
		startPC: e.chunkStartPC,
		plen:    int64(len(e.chunkBuf)),
		crc:     sum,
	})
	e.off += int64(n) + int64(len(e.chunkBuf))
	e.chunkBuf = e.chunkBuf[:0]
	e.chunkN = 0
}

// finish flushes the final (possibly short) chunk and writes the
// end-of-stream trailer, after which truncation anywhere in the file is
// detectable.
func (e *spillEncoder) finish() error {
	e.flushChunk()
	if e.err != nil {
		return e.err
	}
	var tr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tr[:], 0)
	n += binary.PutUvarint(tr[n:], uint64(e.events))
	if _, err := e.w.Write(tr[:n]); err != nil {
		return fmt.Errorf("trace: writing spill trailer: %w", err)
	}
	e.off += int64(n)
	return nil
}

// writeSpill encodes the trace as a BTR2 file, via a temp file, fsync
// and rename: a process killed at any point leaves either the complete
// file or a stray .tmp that no probe ever opens — never a torn .btr.
func writeSpill(path string, tr *ChunkedTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc, err := newSpillEncoder(bw, tr.chunkEvents)
	if err == nil {
		tr.Replay(enc)
		err = enc.finish()
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
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// readSpill decodes a spill file back into a chunked trace at the key's
// granularity; the (pc, taken) stream round-trips exactly, so the
// reloaded trace replays bit-identically to the original recording.
func readSpill(path string, chunkEvents int) (*ChunkedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readSpillFrom(f, chunkEvents)
}

// readSpillFrom is readSpill over an arbitrary reader (e.g. a section
// of an already-open spill file). Either format decodes; BTR2 frames
// are checksum-verified as they stream past.
func readSpillFrom(r io.Reader, chunkEvents int) (*ChunkedTrace, error) {
	br, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rec := NewChunkRecorder(chunkEvents)
	if _, err := Copy(rec, br); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// countingReader tracks the byte offset of a buffered reader, so the
// spill scanner can record exact chunk positions.
type countingReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.off += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

// scanSpill walks a spill stream once, building the chunk index without
// retaining columns, and reports the event count and total delta bytes
// (from which a would-be resident footprint is derived). For BTR2 the
// requested granularity must match the file's; checksums are deferred
// to page-in (the scan is the cheap open path), but frame structure and
// the trailer are verified, so a truncated v2 file fails here.
func scanSpill(r io.Reader, chunkEvents int) (idx []chunkPos, events int64, deltaBytes int64, err error) {
	idx, events, deltaBytes, _, err = scanSpillAny(r, chunkEvents)
	return idx, events, deltaBytes, err
}

// scanSpillAny is scanSpill additionally reporting the granularity the
// index was built at. chunkEvents <= 0 accepts whatever a v2 header
// declares (and scans v1 at DefaultChunkEvents) — the verifier's mode,
// where the caller does not know the file's granularity up front.
func scanSpillAny(r io.Reader, chunkEvents int) (idx []chunkPos, events int64, deltaBytes int64, granularity int, err error) {
	c := &countingReader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("trace: reading spill header: %w", err)
	}
	switch hdr {
	case magic2:
		return scanSpillV2(c, chunkEvents)
	case magic:
		if chunkEvents <= 0 {
			chunkEvents = DefaultChunkEvents
		}
		idx, events, deltaBytes, err = scanSpillV1(c, chunkEvents)
		return idx, events, deltaBytes, chunkEvents, err
	default:
		return nil, 0, 0, 0, ErrBadMagic
	}
}

// scanSpillV1 indexes a legacy BTR1 group stream: chunk boundaries fall
// mid-group, so each chunkPos carries the containing group's offset, an
// in-group skip and the chaining PC.
func scanSpillV1(c *countingReader, chunkEvents int) (idx []chunkPos, events int64, deltaBytes int64, err error) {
	var pc uint64
	var groups int64
scan:
	for {
		groupStart := c.off
		if _, err := c.ReadByte(); err != nil {
			if err == io.EOF {
				break
			}
			return nil, 0, 0, fmt.Errorf("trace: scanning spill: %w", err)
		}
		groups++
		for i := 0; i < groupSize; i++ {
			word, err := binary.ReadUvarint(c)
			if err == io.EOF {
				// Short final group: clean end of stream.
				break scan
			}
			if err != nil {
				return nil, 0, 0, fmt.Errorf("trace: scanning spill: %w", err)
			}
			if events%int64(chunkEvents) == 0 {
				idx = append(idx, chunkPos{off: groupStart, startPC: pc, skip: uint8(i)})
			}
			pc += uint64(unzigzag(word))
			events++
		}
	}
	// Everything that is not the header or a group mask is delta bytes.
	return idx, events, deltaBytes + c.off - int64(len(magic)) - groups, nil
}

// scanSpillV2 indexes a BTR2 frame stream, verifying frame structure
// and the end-of-stream trailer (payload checksums are checked at
// page-in). chunkEvents <= 0 accepts the header's declared granularity.
func scanSpillV2(c *countingReader, chunkEvents int) (idx []chunkPos, events int64, deltaBytes int64, granularity int, err error) {
	declared, err := binary.ReadUvarint(c)
	if err != nil || declared == 0 || declared > maxChunkEvents {
		return nil, 0, 0, 0, &CorruptError{Chunk: -1, Reason: "bad chunk granularity in header"}
	}
	if chunkEvents > 0 && int(declared) != chunkEvents {
		return nil, 0, 0, 0, fmt.Errorf("trace: spill file chunks every %d events, want %d", declared, chunkEvents)
	}
	granularity = int(declared)
	corrupt := func(chunk int, reason string) ([]chunkPos, int64, int64, int, error) {
		return nil, 0, 0, 0, &CorruptError{Chunk: chunk, Reason: reason}
	}
	fieldErr := func(ferr error, chunk int, reason string) ([]chunkPos, int64, int64, int, error) {
		if ferr == io.EOF || ferr == io.ErrUnexpectedEOF {
			return corrupt(chunk, reason)
		}
		return nil, 0, 0, 0, fmt.Errorf("trace: scanning spill: %w", ferr)
	}
	short := false
	for {
		n, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(err, len(idx), "stream ends without its trailer (truncated?)")
		}
		if n == 0 {
			total, err := binary.ReadUvarint(c)
			if err != nil {
				return fieldErr(err, -1, "truncated end-of-stream trailer")
			}
			if int64(total) != events {
				return corrupt(-1, fmt.Sprintf("trailer counts %d events, stream holds %d", total, events))
			}
			if _, err := c.ReadByte(); err != io.EOF {
				return corrupt(-1, "bytes past the end-of-stream trailer")
			}
			return idx, events, deltaBytes, granularity, nil
		}
		if short {
			return corrupt(len(idx), "short chunk frame is not the last")
		}
		if n > declared {
			return corrupt(len(idx), fmt.Sprintf("chunk frame holds %d events, granularity is %d", n, declared))
		}
		if n < declared {
			short = true
		}
		plen, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(err, len(idx), "truncated chunk frame header")
		}
		if plen == 0 || plen > maxChunkPayload {
			return corrupt(len(idx), "bad chunk frame length")
		}
		startPC, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(err, len(idx), "truncated chunk frame header")
		}
		var crcb [4]byte
		if _, err := io.ReadFull(c, crcb[:]); err != nil {
			return fieldErr(err, len(idx), "truncated chunk frame header")
		}
		payloadOff := c.off
		if _, err := io.CopyN(io.Discard, c, int64(plen)); err != nil {
			return fieldErr(err, len(idx), "truncated chunk payload")
		}
		idx = append(idx, chunkPos{
			off:     payloadOff,
			startPC: startPC,
			plen:    int64(plen),
			crc:     binary.LittleEndian.Uint32(crcb[:]),
		})
		events += int64(n)
		deltaBytes += int64(plen) - (int64(n)+groupSize-1)/groupSize
	}
}

// chunkSpan computes the byte range of the spill file covering chunk k.
// BTR2 chunks are self-contained frames, so the span is exactly the
// payload. BTR1 chunk boundaries are independent of the format's
// 8-event groups: when the next chunk starts mid-group, this chunk's
// final events live past that chunk's group offset, so the span extends
// by the mask byte plus at most skip full-width deltas.
func chunkSpan(idx []chunkPos, fileSize int64, k int) (start, end int64) {
	if idx[k].plen > 0 {
		return idx[k].off, idx[k].off + idx[k].plen
	}
	start = idx[k].off
	end = fileSize
	if k+1 < len(idx) {
		end = idx[k+1].off
		if s := int64(idx[k+1].skip); s > 0 {
			end += 1 + s*binary.MaxVarintLen64
			if end > fileSize {
				end = fileSize
			}
		}
	}
	return start, end
}

// pageBufPool recycles the scratch buffers spill page-ins read encoded
// spans into. The decode copies everything it needs into the chunk's
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

// readChunkAt pages chunk k (n events) from an open spill file: one
// ReadAt covering the chunk's span (retried with backoff on transient
// errors), then a checksum-verified decode. Buffers are reused when
// large enough.
func (h *Handle) readChunkAt(f *os.File, idx []chunkPos, fileSize int64, k, n int, pcs, dirs []uint64) (DecodedChunk, error) {
	start, end := chunkSpan(idx, fileSize, k)
	bp := getPageBuf(int(end - start))
	defer putPageBuf(bp)
	buf := *bp
	if err := h.readFull(f, buf, start); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "spill file shorter than its chunk index (truncated?)"}
		}
		return DecodedChunk{}, fmt.Errorf("trace: paging spill chunk %d: %w", k, err)
	}
	return decodeChunk(buf, idx[k], k, n, h.chunkEvents, pcs, dirs)
}

// decodeChunk verifies (BTR2) and decodes chunk k from buf, which must
// start at the chunk's span offset. Every page-in funnels through here,
// single-chunk and coalesced reads alike, so a damaged chunk is detected before a single
// wrong event reaches a replay.
func decodeChunk(buf []byte, pos chunkPos, k, n, chunkEvents int, pcs, dirs []uint64) (DecodedChunk, error) {
	if pos.plen > 0 {
		if int64(len(buf)) < pos.plen {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk payload extends past end of file"}
		}
		buf = buf[:pos.plen]
		if crc32.Checksum(buf, castagnoli) != pos.crc {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk checksum mismatch"}
		}
	}
	return decodeChunkBytes(buf, pos, k, n, chunkEvents, pcs, dirs)
}

// decodeChunkBytes decodes chunk k (n events) from buf, which must hold
// at least the chunk's span starting at pos.off (the decode stops after
// n events, so trailing bytes beyond the span are ignored).
func decodeChunkBytes(buf []byte, pos chunkPos, k, n, chunkEvents int, pcs, dirs []uint64) (DecodedChunk, error) {
	corrupt := func() (DecodedChunk, error) {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "undecodable chunk bytes"}
	}
	if cap(pcs) < n {
		pcs = make([]uint64, n)
	}
	pcs = pcs[:n]
	words := (chunkEvents + 63) / 64
	if cap(dirs) < words {
		dirs = make([]uint64, words)
	}
	dirs = dirs[:words]
	for i := range dirs {
		dirs[i] = 0
	}

	if len(buf) == 0 {
		return corrupt()
	}
	mask := buf[0]
	p := 1
	gi := 0
	for s := 0; s < int(pos.skip); s++ {
		_, w := binary.Uvarint(buf[p:])
		if w <= 0 {
			return corrupt()
		}
		p += w
		gi++
	}
	pc := pos.startPC
	for i := 0; i < n; i++ {
		if gi == groupSize {
			if p >= len(buf) {
				return corrupt()
			}
			mask = buf[p]
			p++
			gi = 0
		}
		word, w := binary.Uvarint(buf[p:])
		if w <= 0 {
			return corrupt()
		}
		p += w
		pc += uint64(unzigzag(word))
		pcs[i] = pc
		if mask&(1<<uint(gi)) != 0 {
			dirs[i>>6] |= 1 << (uint(i) & 63)
		}
		gi++
	}
	return DecodedChunk{PCs: pcs, Dirs: dirs, N: n}, nil
}

// faultWriter adapts a SpillIO's Write to io.Writer for one file, so a
// bufio.Writer (and the encoder above it) flushes through the
// injectable layer.
type faultWriter struct {
	f   *os.File
	sio SpillIO
}

func (fw faultWriter) Write(p []byte) (int, error) { return fw.sio.Write(fw.f, p) }

// StreamRecorder is a Sink that writes a recording straight to a BTR2
// spill file as events arrive, keeping at most a bounded prefix of
// chunk columns resident — the out-of-core replacement for recording
// into a ChunkRecorder and spilling afterwards, with peak memory
// O(budget) instead of O(trace). Seal returns the finished recording
// as a Handle whose resident prefix serves the hot head of replays and
// whose remainder pages back in from the file it just wrote.
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
	f         *os.File
	bw        *bufio.Writer
	tmpPath   string
	finalPath string
	sio       SpillIO

	enc *spillEncoder

	rec           *ChunkRecorder // resident-prefix recorder; nil once the budget is hit
	budget        int64
	prefix        *ChunkedTrace
	retainedBytes int64

	sealed bool
}

var _ Sink = (*StreamRecorder)(nil)

// NewStreamRecorder opens a streaming recorder writing to path (or an
// anonymous temp file when path is ""), cutting chunks every
// chunkEvents events (<= 0 means DefaultChunkEvents) and keeping about
// residentBudget bytes of leading chunk columns in memory.
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
	s := &StreamRecorder{budget: residentBudget, finalPath: path, sio: sio}
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
	s.enc, err = newSpillEncoder(s.bw, chunkEvents)
	if err != nil {
		s.Discard()
		return nil, err
	}
	if residentBudget > 0 {
		s.rec = NewChunkRecorder(s.enc.chunkEvents)
	}
	return s, nil
}

// Branch streams one event. Write errors are sticky and reported by
// Seal.
func (s *StreamRecorder) Branch(pc uint64, taken bool) {
	if s.sealed {
		panic("trace: recording into a sealed StreamRecorder")
	}
	if s.enc.err != nil {
		return
	}
	s.enc.Branch(pc, taken)
	if s.rec != nil {
		s.rec.Branch(pc, taken)
		if s.enc.chunkN == 0 {
			// A chunk just completed (the prefix recorder cuts at the same
			// boundaries, so it just flushed too): charge it, and stop
			// retaining at the first boundary past the budget.
			last := &s.rec.tr.chunks[len(s.rec.tr.chunks)-1]
			s.retainedBytes += int64(len(last.deltas)) + int64(len(last.dirs))*8
			if s.retainedBytes > s.budget {
				s.prefix = s.rec.Trace()
				s.rec = nil
			}
		}
	}
}

// Events returns the number of events streamed so far.
func (s *StreamRecorder) Events() int64 { return s.enc.events }

// Seal flushes the final chunk and trailer, syncs and lands the file
// (temp-and-rename for named paths) and returns the recording as a
// Handle: resident prefix in memory, everything else paged from the
// file on demand. Call it exactly once; a failed Seal cleans up after
// itself.
func (s *StreamRecorder) Seal() (*Handle, error) {
	if s.sealed {
		panic("trace: sealing a sealed StreamRecorder")
	}
	err := s.enc.finish()
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
	s.sealed = true

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
	if s.rec != nil {
		prefix = s.rec.Trace() // the whole recording fit the budget
	}
	var peak int64
	if prefix != nil {
		peak = prefix.SizeBytes()
	}
	return &Handle{
		chunkEvents:  s.enc.chunkEvents,
		events:       s.enc.events,
		nchunks:      len(s.enc.idx),
		encoded:      s.enc.deltaBytes + int64(len(s.enc.idx))*int64((s.enc.chunkEvents+63)/64)*8,
		residentPeak: peak,
		res:          prefix,
		path:         path,
		f:            s.f,
		fileSize:     s.enc.off,
		idx:          s.enc.idx,
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
