package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Both trace formats encode events in groups of up to 8:
//
//	mask    byte     bit i = direction (1 = taken) of the group's i-th event
//	deltas  1..8 ×   uvarint( zigzag(pc - prevPC) )
//
// Branch traces revisit a small working set of PCs, so deltas are small:
// the common event costs ~1.1 bytes versus 9 for a fixed-width encoding.
//
// BTR1 is the interchange format of brtrace, brsim and brclass (Writer
// and Reader): the magic "BTR1", then groups until EOF, deltas chaining
// from PC 0. Only the final group may be short, so the stream is
// self-delimiting without a length header.
//
// BTR3 is the chunk format. A recording is a sequence of frames, and a
// frame is the only chunk encoding there is: a resident ChunkedTrace
// holds the frames in memory, and a spill file stores the same frames:
//
//	magic       [4]byte  "BTR3"
//	chunkEvents uvarint  the file's chunk granularity
//	frames      *        one per chunk, then one trailer
//
// Each frame:
//
//	events   uvarint  events in this chunk (1..chunkEvents; only the
//	                  final frame may hold fewer than chunkEvents)
//	plen     uvarint  payload length in bytes
//	startPC  uvarint  the PC preceding the chunk's first event
//	crc      u32 LE   CRC32C (Castagnoli) of the three header fields'
//	                  canonical uvarints followed by the payload
//	payload  plen ×   event groups; deltas chain from startPC, groups
//	                  restart per frame (the final group may be short)
//
// The checksum covers the header as well as the payload, so a flipped
// bit anywhere in a frame is caught rather than decoded. The stream
// ends with a trailer — events == 0 followed by uvarint(total events) —
// so truncation at any byte, frame boundaries included, is detectable.
// Frames are self-contained, so any one decodes from one bounded read.
//
// frameEncoder builds frames, frameReader parses a frame stream and
// chunk.decode expands one frame: one of each, shared by recorders,
// spill files, page-ins, the verifier and Reader.

var magic = [4]byte{'B', 'T', 'R', '1'}
var magic3 = [4]byte{'B', 'T', 'R', '3'}

// castagnoli is the CRC32C polynomial table used for frame checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxChunkPayload bounds a frame's declared payload length; anything
// larger is treated as corruption rather than allocated.
const maxChunkPayload = 1 << 28

// maxChunkEvents bounds a header's declared chunk granularity.
const maxChunkEvents = 1 << 30

// groupSize is the number of events per direction-mask group.
const groupSize = 8

// ErrBadMagic is returned when a stream does not begin with a header
// its reader accepts: BTR1 or BTR3 for NewReader, BTR3 for spill files.
var ErrBadMagic = errors.New("trace: bad magic (not a BTR trace)")

// ErrCorruptSpill is the sentinel every spill-corruption error unwraps
// to: checksum mismatches, truncated streams, undecodable chunk bytes.
// Callers branch on errors.Is(err, ErrCorruptSpill) to distinguish
// damage (quarantine the file and re-record) from transient I/O trouble
// (already retried) and plain absence (regenerate).
var ErrCorruptSpill = errors.New("trace: corrupt spill data")

// CorruptError describes detected spill damage: where (Path may be
// empty when the reader only sees a stream; Chunk is -1 for structural
// damage outside any one chunk) and what. It unwraps to ErrCorruptSpill.
type CorruptError struct {
	Path   string
	Chunk  int
	Reason string
}

func (e *CorruptError) Error() string {
	msg := "trace: corrupt spill"
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Chunk >= 0 {
		msg += fmt.Sprintf(" chunk %d", e.Chunk)
	}
	return msg + ": " + e.Reason
}

func (e *CorruptError) Unwrap() error { return ErrCorruptSpill }

// ErrWriterClosed is returned when writing to a closed Writer.
var ErrWriterClosed = errors.New("trace: writer is closed")

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// chunk is one frame: the unit a recording is stored in, resident or
// on disk.
type chunk struct {
	startPC uint64 // the PC preceding the chunk's first event
	n       int    // events
	payload []byte // the event groups
	crc     uint32 // CRC32C of the header fields and payload
}

// header appends the frame's header fields as uvarints.
func (c *chunk) header(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.n))
	b = binary.AppendUvarint(b, uint64(len(c.payload)))
	return binary.AppendUvarint(b, c.startPC)
}

// sum computes the frame checksum. The few header bytes go through the
// table a byte at a time (handing crc32 a slice of them would move it to
// the heap on every page-in); the payload takes the accelerated path.
func (c *chunk) sum() uint32 {
	var hdr [3 * binary.MaxVarintLen64]byte
	crc := ^uint32(0)
	for _, b := range c.header(hdr[:0]) {
		crc = castagnoli[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, castagnoli, c.payload)
}

// check verifies chunk k's checksum.
func (c *chunk) check(k int) error {
	if c.sum() != c.crc {
		return &CorruptError{Chunk: k, Reason: "chunk checksum mismatch"}
	}
	return nil
}

// decode expands chunk k into a PC column and a direction bitmap
// (event i's outcome is bit i&63 of word i>>6), reusing pcs and dirs
// when large enough. It works a group at a time — each mask byte is
// ORed into the bitmap once per 8 events, and one-byte deltas skip the
// varint loop — and rejects a payload it does not consume exactly.
// Chunks are immutable, so concurrent decodes into distinct buffers
// are safe.
func (c *chunk) decode(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	n := c.n
	if cap(pcs) < n {
		pcs = make([]uint64, n)
	}
	pcs = pcs[:n]
	words := (n + 63) / 64
	if cap(dirs) < words {
		dirs = make([]uint64, words)
	}
	dirs = dirs[:words]
	clear(dirs)
	p := c.payload
	pc := c.startPC
	off := 0
	var mask byte
	for i := 0; i < n; i += groupSize {
		if off >= len(p) {
			return DecodedChunk{}, undecodable(k)
		}
		mask = p[off]
		off++
		dirs[i>>6] |= uint64(mask) << (i & 63)
		group := pcs[i:min(i+groupSize, n)]
		for j := range group {
			if off >= len(p) {
				return DecodedChunk{}, undecodable(k)
			}
			u := uint64(p[off])
			if u < 0x80 {
				off++
			} else {
				var w int
				if u, w = binary.Uvarint(p[off:]); w <= 0 {
					return DecodedChunk{}, undecodable(k)
				}
				off += w
			}
			pc += uint64(unzigzag(u))
			group[j] = pc
		}
	}
	if off != len(p) || (n%groupSize != 0 && mask>>(n%groupSize) != 0) {
		return DecodedChunk{}, undecodable(k)
	}
	return DecodedChunk{PCs: pcs, Dirs: dirs, N: n}, nil
}

func undecodable(k int) error {
	return &CorruptError{Chunk: k, Reason: "undecodable chunk payload"}
}

// frameEncoder cuts an event stream into frames of chunkEvents events,
// encoding each event in place into the open frame's payload. Sealed
// frames go to emit, which must copy the payload if it keeps it (the
// buffer is reused). It is the one encoder behind ChunkRecorder,
// StreamRecorder and ChunkStatsSink, which embed it for its Branch.
type frameEncoder struct {
	chunkEvents int
	lastPC      uint64
	cur         chunk
	mask        int // payload offset of the open group's mask byte
	emit        func(*chunk)
	sealed      bool
}

func newFrameEncoder(chunkEvents int, emit func(*chunk)) frameEncoder {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return frameEncoder{chunkEvents: chunkEvents, emit: emit}
}

// Branch encodes one event.
func (e *frameEncoder) Branch(pc uint64, taken bool) {
	if e.sealed {
		panic("trace: recording into a sealed recorder")
	}
	c := &e.cur
	if c.n&(groupSize-1) == 0 {
		if c.n == 0 {
			c.startPC = e.lastPC
		}
		e.mask = len(c.payload)
		c.payload = append(c.payload, 0)
	}
	if taken {
		c.payload[e.mask] |= 1 << (c.n & (groupSize - 1))
	}
	if u := zigzag(int64(pc - e.lastPC)); u < 0x80 {
		c.payload = append(c.payload, byte(u))
	} else {
		c.payload = binary.AppendUvarint(c.payload, u)
	}
	e.lastPC = pc
	c.n++
	if c.n == e.chunkEvents {
		e.flush()
	}
}

// flush checksums the open frame, if any, and hands it to emit.
func (e *frameEncoder) flush() {
	if e.cur.n == 0 {
		return
	}
	e.cur.crc = e.cur.sum()
	e.emit(&e.cur)
	e.cur.payload = e.cur.payload[:0]
	e.cur.n = 0
}

// close flushes the final frame and drops the encode buffer; further
// events panic.
func (e *frameEncoder) close() {
	e.flush()
	e.cur.payload = nil
	e.sealed = true
}

// chunkPos locates one frame's payload in a BTR3 stream (off, plen)
// with the header fields its checksum covers.
type chunkPos struct {
	off     int64
	plen    int
	n       int
	startPC uint64
	crc     uint32
}

// frame is the chunk whose payload is p.
func (pos *chunkPos) frame(p []byte) chunk {
	return chunk{startPC: pos.startPC, n: pos.n, payload: p, crc: pos.crc}
}

// frameReader is the one BTR3 stream parser: the header, then each
// frame's header fields and their bounds, the short-frame rule and the
// trailer. Spill scans, Reader, Handle.materialise and VerifySpill all
// walk streams through it.
type frameReader struct {
	br          *bufio.Reader
	off         int64 // bytes consumed
	chunkEvents int   // the header's granularity
	frames      int   // data frames parsed
	events      int64 // events in them
	short       bool  // a short frame was seen; it must be the last
	done        bool  // the trailer was read and checked
}

// openFrames checks the BTR3 magic and header of r. chunkEvents > 0
// additionally requires that granularity.
func openFrames(r io.Reader, chunkEvents int) (*frameReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil && !truncated(err) {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m != magic3 {
		return nil, ErrBadMagic
	}
	return readFrameHeader(br, chunkEvents)
}

// readFrameHeader reads the granularity following a BTR3 magic.
func readFrameHeader(br *bufio.Reader, chunkEvents int) (*frameReader, error) {
	r := &frameReader{br: br, off: int64(len(magic3))}
	g, err := r.uvarint(-1, "bad chunk granularity in header")
	if err != nil {
		return nil, err
	}
	if g == 0 || g > maxChunkEvents {
		return nil, &CorruptError{Chunk: -1, Reason: "bad chunk granularity in header"}
	}
	if chunkEvents > 0 && int(g) != chunkEvents {
		return nil, fmt.Errorf("trace: spill file chunks every %d events, want %d", g, chunkEvents)
	}
	r.chunkEvents = int(g)
	return r, nil
}

func truncated(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }

// fail maps a failed read: running out of bytes is truncation
// (corruption), anything else a real I/O error.
func (r *frameReader) fail(err error, chunk int, reason string) error {
	if truncated(err) {
		return &CorruptError{Chunk: chunk, Reason: reason}
	}
	return fmt.Errorf("trace: reading chunk frame: %w", err)
}

// uvarint reads one header field. Running out of bytes and an overlong
// varint are damage; a failing read is an I/O error.
func (r *frameReader) uvarint(chunk int, reason string) (uint64, error) {
	b, err := r.br.Peek(binary.MaxVarintLen64)
	v, w := binary.Uvarint(b)
	if w > 0 {
		r.br.Discard(w)
		r.off += int64(w)
		return v, nil
	}
	if w < 0 || err == nil {
		err = io.ErrUnexpectedEOF // overlong: damage, like running out
	}
	return 0, r.fail(err, chunk, reason)
}

// next parses the next frame header. ok is false once the trailer has
// been read and checked. The caller consumes the payload (payload or
// skip) before calling next again.
func (r *frameReader) next() (pos chunkPos, ok bool, err error) {
	if r.done {
		return pos, false, nil
	}
	k := r.frames
	n, err := r.uvarint(k, "stream ends without its trailer (truncated?)")
	if err != nil {
		return pos, false, err
	}
	if n == 0 {
		total, err := r.uvarint(-1, "bad end-of-stream trailer")
		if err != nil {
			return pos, false, err
		}
		if int64(total) != r.events {
			return pos, false, &CorruptError{Chunk: -1, Reason: fmt.Sprintf("trailer counts %d events, stream holds %d", total, r.events)}
		}
		if _, err := r.br.ReadByte(); err != io.EOF {
			if err != nil {
				return pos, false, r.fail(err, -1, "")
			}
			return pos, false, &CorruptError{Chunk: -1, Reason: "bytes past the end-of-stream trailer"}
		}
		r.done = true
		return pos, false, nil
	}
	if r.short {
		return pos, false, &CorruptError{Chunk: k, Reason: "short chunk frame is not the last"}
	}
	if n > uint64(r.chunkEvents) {
		return pos, false, &CorruptError{Chunk: k, Reason: fmt.Sprintf("chunk frame holds %d events, granularity is %d", n, r.chunkEvents)}
	}
	r.short = n < uint64(r.chunkEvents)
	plen, err := r.uvarint(k, "bad chunk frame header")
	if err != nil {
		return pos, false, err
	}
	// Every event costs at least a delta byte and every group a mask
	// byte, so a shorter payload is damage — and the bound keeps decode
	// buffers proportional to bytes actually present.
	if plen < n+(n+groupSize-1)/groupSize || plen > maxChunkPayload {
		return pos, false, &CorruptError{Chunk: k, Reason: "bad chunk frame length"}
	}
	startPC, err := r.uvarint(k, "bad chunk frame header")
	if err != nil {
		return pos, false, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		return pos, false, r.fail(err, k, "truncated chunk frame header")
	}
	r.off += 4
	r.frames++
	r.events += int64(n)
	return chunkPos{off: r.off, plen: int(plen), n: int(n), startPC: startPC, crc: binary.LittleEndian.Uint32(crc[:])}, true, nil
}

// skip discards the payload of the frame next just parsed.
func (r *frameReader) skip(pos chunkPos) error {
	d, err := r.br.Discard(pos.plen)
	r.off += int64(d)
	if err != nil {
		return r.fail(err, r.frames-1, "truncated chunk payload")
	}
	return nil
}

// payload reads the payload of the frame next just parsed into buf
// and verifies the frame's checksum. buf grows only as bytes arrive,
// so a lying length cannot allocate more than the stream holds.
func (r *frameReader) payload(pos chunkPos, buf []byte) (chunk, error) {
	k := r.frames - 1
	buf = buf[:0]
	for len(buf) < pos.plen {
		step := min(pos.plen-len(buf), 1<<16)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r.br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		r.off += int64(m)
		if err != nil {
			return chunk{}, r.fail(err, k, "truncated chunk payload")
		}
	}
	c := pos.frame(buf)
	return c, c.check(k)
}

// read parses, checksums and decodes the next frame, reusing buf and
// d's columns. ok is false at the verified end of the stream.
func (r *frameReader) read(buf []byte, d DecodedChunk) (chunk, DecodedChunk, bool, error) {
	pos, ok, err := r.next()
	if !ok || err != nil {
		return chunk{}, d, false, err
	}
	c, err := r.payload(pos, buf)
	if err != nil {
		return chunk{}, d, false, err
	}
	d, err = c.decode(r.frames-1, d.PCs, d.Dirs)
	return c, d, err == nil, err
}

// each reads every remaining frame, checked and decoded, handing each
// to fn (which must copy the payload to keep it).
func (r *frameReader) each(fn func(*chunk)) error {
	var buf []byte
	var d DecodedChunk
	for {
		c, dc, ok, err := r.read(buf, d)
		if !ok {
			return err
		}
		fn(&c)
		buf, d = c.payload, dc
	}
}

// Writer streams events into an io.Writer in BTR1 format. It implements
// Sink. Close must be called to emit the final (possibly partial) group
// and flush buffered data; after Close the writer rejects further events.
type Writer struct {
	bw      *bufio.Writer
	lastPC  uint64
	pending [groupSize]Event
	n       int
	closed  bool
	err     error
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter creates a Writer and emits the format header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{bw: bw}, nil
}

// Branch buffers one event, emitting a group every eight. Encoding errors
// are sticky and reported by Close.
func (w *Writer) Branch(pc uint64, taken bool) {
	if w.err != nil {
		return
	}
	if w.closed {
		w.err = ErrWriterClosed
		return
	}
	w.pending[w.n] = Event{PC: pc, Taken: taken}
	w.n++
	if w.n == groupSize {
		w.emitGroup()
	}
}

func (w *Writer) emitGroup() {
	if w.n == 0 || w.err != nil {
		return
	}
	var mask byte
	for i := 0; i < w.n; i++ {
		if w.pending[i].Taken {
			mask |= 1 << uint(i)
		}
	}
	if err := w.bw.WriteByte(mask); err != nil {
		w.err = fmt.Errorf("trace: writing group mask: %w", err)
		return
	}
	for i := 0; i < w.n; i++ {
		delta := int64(w.pending[i].PC - w.lastPC)
		w.lastPC = w.pending[i].PC
		n := binary.PutUvarint(w.scratch[:], zigzag(delta))
		if _, err := w.bw.Write(w.scratch[:n]); err != nil {
			w.err = fmt.Errorf("trace: writing event: %w", err)
			return
		}
	}
	w.n = 0
}

// Close emits the final partial group and flushes. It does not close the
// underlying io.Writer. Close is idempotent.
func (w *Writer) Close() error {
	if !w.closed {
		w.emitGroup()
		w.closed = true
	}
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Flush writes all *complete* groups to the underlying writer. Buffered
// events of a partial group are retained (the format only allows a short
// group at end of stream); call Close to emit them.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader decodes a BTR1 or BTR3 stream (the header picks the format).
// It implements Source. BTR3 frames are checksum-verified and decoded
// as they are entered, and a missing trailer (truncation) is an error
// rather than a silent short stream.
type Reader struct {
	br     *bufio.Reader
	lastPC uint64
	mask   byte
	idx    int // next event index within the current group; groupSize = exhausted

	fr  *frameReader // BTR3 framing; nil for BTR1
	buf []byte       // the current frame's payload
	cur DecodedChunk // the current frame, decoded
	i   int          // next event in cur
}

// NewReader validates the header and returns a Reader positioned at the
// first event.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch hdr {
	case magic:
		return &Reader{br: br, idx: groupSize}, nil
	case magic3:
		fr, err := readFrameHeader(br, 0)
		if err != nil {
			return nil, err
		}
		return &Reader{fr: fr}, nil
	default:
		return nil, ErrBadMagic
	}
}

// ChunkEvents returns the stream's declared chunk granularity (BTR3), or
// 0 for BTR1 streams, which have none.
func (r *Reader) ChunkEvents() int {
	if r.fr == nil {
		return 0
	}
	return r.fr.chunkEvents
}

// Next returns the next event in the stream.
func (r *Reader) Next() (Event, bool, error) {
	if r.fr != nil {
		for r.i == r.cur.N {
			c, d, ok, err := r.fr.read(r.buf, r.cur)
			if !ok {
				return Event{}, false, err
			}
			r.buf, r.cur, r.i = c.payload, d, 0
		}
		i := r.i
		r.i++
		return Event{PC: r.cur.PCs[i], Taken: r.cur.Dirs[i>>6]&(1<<(uint(i)&63)) != 0}, true, nil
	}
	if r.idx == groupSize {
		mask, err := r.br.ReadByte()
		if err == io.EOF {
			return Event{}, false, nil
		}
		if err != nil {
			return Event{}, false, fmt.Errorf("trace: reading group mask: %w", err)
		}
		r.mask = mask
		r.idx = 0
	}
	word, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		// A short final group (or a trailing mask byte with no events):
		// clean end of stream.
		return Event{}, false, nil
	}
	if err != nil {
		return Event{}, false, fmt.Errorf("trace: reading event: %w", err)
	}
	r.lastPC += uint64(unzigzag(word))
	taken := r.mask&(1<<uint(r.idx)) != 0
	r.idx++
	return Event{PC: r.lastPC, Taken: taken}, true, nil
}

// WriteText streams events from src to w in a line-oriented text format
// ("0x<pc> T|N"), useful for debugging and diffing. It reports the number
// of events written.
func WriteText(w io.Writer, src Source) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dir := byte('N')
		if ev.Taken {
			dir = 'T'
		}
		if _, err := fmt.Fprintf(bw, "0x%x %c\n", ev.PC, dir); err != nil {
			return n, fmt.Errorf("trace: writing text event: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// ReadText parses the text format produced by WriteText.
func ReadText(r io.Reader) ([]Event, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<16), 1<<20)
	var events []Event
	line := 0
	for br.Scan() {
		line++
		text := br.Text()
		if text == "" {
			continue
		}
		var pc uint64
		var dir string
		if _, err := fmt.Sscanf(text, "0x%x %s", &pc, &dir); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch dir {
		case "T":
			events = append(events, Event{PC: pc, Taken: true})
		case "N":
			events = append(events, Event{PC: pc, Taken: false})
		default:
			return nil, fmt.Errorf("trace: line %d: direction %q is not T or N", line, dir)
		}
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning text: %w", err)
	}
	return events, nil
}
