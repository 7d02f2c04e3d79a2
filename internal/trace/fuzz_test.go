package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzSpillFile feeds arbitrary bytes to the spill-file parser and
// decoder. VerifySpill must pass exactly when opening the file at its
// header's granularity and paging every chunk in both succeed; no
// input may panic or allocate more than maxChunkPayload, and every
// failure must be classified as damage or a foreign format. The seed
// corpus (testdata/fuzz/FuzzSpillFile) holds clean, truncated and
// bit-flipped BTR1 and BTR3 files.
func FuzzSpillFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.btr")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		rep := VerifySpill(path)
		granularity := 0 // unreadable header: the open fails like the verify
		if bytes.HasPrefix(data, magic3[:]) {
			if g, w := binary.Uvarint(data[len(magic3):]); w > 0 && g <= maxChunkEvents {
				granularity = int(g)
			}
		}
		h, err := OpenSpillHandle(path, granularity)
		if err == nil {
			for k := 0; k < h.Chunks() && err == nil; k++ {
				_, err = h.DecodeChunk(k)
			}
			h.f.Close()
		}

		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxChunkPayload {
			t.Fatalf("%d-byte input allocated %d bytes", len(data), grew)
		}
		if rep.OK() != (err == nil) {
			t.Fatalf("VerifySpill err = %v, but open + page-in err = %v", rep.Err, err)
		}
		for _, e := range []error{rep.Err, err} {
			if e != nil && !errors.Is(e, ErrCorruptSpill) && !errors.Is(e, ErrBadMagic) {
				t.Fatalf("unclassified failure: %v", e)
			}
		}
	})
}

// FuzzReader runs NewReader and Next to exhaustion over arbitrary
// bytes: no input may panic, and every event costs at least one input
// byte, so the stream cannot outrun its input.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for events := 0; ; events++ {
			if events > len(data) {
				t.Fatalf("%d-byte input yielded more than %d events", len(data), events)
			}
			if _, ok, err := r.Next(); !ok || err != nil {
				return
			}
		}
	})
}
