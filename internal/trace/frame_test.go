package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameField is the file offset of one header field of one frame.
type frameField struct {
	name string
	off  int64
}

// frameLayout walks a spill file's frames and returns, for frame k,
// the offsets of its header fields, the header bytes the checksum
// covers, the stored checksum and the payload.
func frameLayout(t *testing.T, data []byte, k int) (fields []frameField, hdr []byte, crc uint32, payload []byte) {
	t.Helper()
	off := 4 // magic
	_, w := binary.Uvarint(data[off:])
	off += w
	for i := 0; ; i++ {
		start := off
		var vals [3]uint64
		for f := range vals {
			fields = append(fields, frameField{[]string{"events", "plen", "startPC"}[f], int64(off)})
			vals[f], w = binary.Uvarint(data[off:])
			if w <= 0 {
				t.Fatalf("frame %d: bad header", i)
			}
			off += w
		}
		fields = append(fields, frameField{"crc", int64(off)})
		hdr = data[start:off]
		crc = binary.LittleEndian.Uint32(data[off:])
		off += 4
		payload = data[off : off+int(vals[1])]
		off += int(vals[1])
		if i == k {
			return fields[len(fields)-4:], hdr, crc, payload
		}
	}
}

// TestFrameHeaderInsideChecksum pins that the frame checksum covers the
// header: flipping a bit in any header field of a middle frame — event
// count, payload length, start PC or the checksum itself — must be
// caught by opening or paging the file and by VerifySpill, never
// replayed as a different stream.
func TestFrameHeaderInsideChecksum(t *testing.T) {
	const chunkEvents = 64
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.btr")
	recordSpill(t, clean, 1000, chunkEvents, 1, nil).Release()
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// The stored checksum is CRC32C over the header fields' uvarints
	// followed by the payload.
	fields, hdr, crc, payload := frameLayout(t, data, 5)
	if got := crc32.Checksum(append(append([]byte{}, hdr...), payload...), castagnoli); got != crc {
		t.Fatalf("frame 5 checksum %#x, want CRC32C(header ‖ payload) = %#x", crc, got)
	}

	for _, fld := range fields {
		path := filepath.Join(dir, fld.name+".btr")
		damaged := append([]byte{}, data...)
		damaged[fld.off] ^= 0x08 // keeps the varint's length
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}

		if rep := VerifySpill(path); rep.OK() {
			t.Errorf("%s flipped: VerifySpill passed", fld.name)
		}
		h, err := OpenSpillHandle(path, chunkEvents)
		if err == nil {
			for k := 0; k < h.Chunks() && err == nil; k++ {
				_, err = h.DecodeChunk(k)
			}
			h.f.Close()
		}
		if !errors.Is(err, ErrCorruptSpill) {
			t.Errorf("%s flipped: open + page-in err = %v, want ErrCorruptSpill", fld.name, err)
		}
	}
}

// TestCacheOldFormatIsAMiss pins the format bump: a cache dir holding a
// BTR2 spill file from an older build is a plain miss — not damage, so
// nothing is quarantined — and the re-record lands at the same path.
func TestCacheOldFormatIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "synthetic/old", Scale: 1, ChunkEvents: 64}
	c := NewCache(0, dir, 0)
	path := c.SpillPathFor(key)

	// A complete BTR2 file of three events: one frame whose checksum
	// covers only the payload, then the trailer.
	payload := []byte{0b101, 2, 4, 3}
	old := binary.AppendUvarint([]byte("BTR2"), 64)
	old = append(old, 3, byte(len(payload)), 0)
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(payload, castagnoli))
	old = append(append(old, payload...), 0, 3)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSpillHandle(path, 64); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("BTR2 file: err = %v, want ErrBadMagic", err)
	}
	if _, ok := c.GetHandle(key); ok {
		t.Fatal("BTR2 spill file served as a hit")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("BTR2 spill file served as a hit")
	}
	if s := c.Stats(); s.Quarantined != 0 || s.Misses != 2 {
		t.Fatalf("stats %+v: want 2 misses, nothing quarantined", s)
	}

	tr := recordSynthetic(1000, 64, 3)
	if err := c.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	if rep := VerifySpill(path); !rep.OK() || rep.Format != 3 || rep.Events != 1000 {
		t.Fatalf("re-record at %s: %+v", path, rep)
	}
	got, ok := NewCache(0, dir, 0).Get(key)
	if !ok || !reflect.DeepEqual(collect(got), collect(tr)) {
		t.Fatal("re-recorded spill does not round-trip")
	}
	if _, err := os.Stat(path + ".quarantined"); err == nil {
		t.Fatal("old-format file was quarantined, want a plain overwrite")
	}
}
