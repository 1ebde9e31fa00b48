package trace

import (
	"os"
	"path/filepath"
)

// TraceFile writes a framed trace to a file that appears only when the
// trace is complete: references go to a temporary file beside the
// destination, Commit renames it into place, and Abort removes it. A
// command that fails mid-stream therefore leaves no partial or empty trace
// at the path it was asked to write.
type TraceFile struct {
	*TraceWriter
	tmp  *os.File
	path string
}

// CreateTraceFile starts a framed trace bound for path, with frame
// references per frame (see NewTraceWriter).
func CreateTraceFile(path string, frame int) (*TraceFile, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &TraceFile{TraceWriter: NewTraceWriter(tmp, frame), tmp: tmp, path: path}, nil
}

// Commit flushes the trace and renames it to its destination, readable as
// a file os.Create makes under the usual umask would be (CreateTemp makes
// it owner-only). On any error the temporary file is removed and the
// destination left as it was.
func (f *TraceFile) Commit() error {
	err := f.TraceWriter.Close()
	if err == nil {
		err = f.tmp.Chmod(0o644)
	}
	if cerr := f.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.tmp.Name(), f.path)
	}
	if err != nil {
		os.Remove(f.tmp.Name())
	}
	return err
}

// Abort discards the trace: the temporary file is closed and removed.
func (f *TraceFile) Abort() {
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}
