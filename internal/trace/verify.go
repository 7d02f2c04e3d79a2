package trace

import (
	"errors"
	"os"
)

// VerifyReport is the result of auditing one spill file.
type VerifyReport struct {
	Path   string
	Format int // 3 = BTR3; 0 when the header is unreadable
	Chunks int
	Events int64
	Err    error // nil = the file passed every check
}

// OK reports whether the file passed.
func (r VerifyReport) OK() bool { return r.Err == nil }

// VerifySpill audits a spill file end to end: header, frame structure,
// every chunk's checksum and payload decodability, event counts and
// trailer — exactly the checks opening the file and paging every chunk
// in would apply. The returned report carries whatever was learned
// before the first failure.
func VerifySpill(path string) VerifyReport {
	rep := VerifyReport{Path: path}
	f, err := os.Open(path)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer f.Close()
	fr, err := openFrames(f, 0)
	if err == nil {
		rep.Format = 3
		err = fr.each(func(*chunk) {})
		rep.Chunks, rep.Events = fr.frames, fr.events
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	rep.Err = err
	return rep
}
