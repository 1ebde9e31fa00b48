package core

import "errors"

// Typed argument errors returned by the profiling and analysis entry
// points, so callers (CLIs, experiments) can branch on the cause instead of
// string-matching.
var (
	// ErrNilProgram is returned when a profiling entry point receives a
	// nil workload program.
	ErrNilProgram = errors.New("core: nil program")
	// ErrNilProfile is returned when Analyze receives a nil profile.
	ErrNilProfile = errors.New("core: nil profile")
	// ErrNilBinary is returned when Analyze receives a nil binary.
	ErrNilBinary = errors.New("core: nil binary")
	// ErrTooManyThreads is returned when a profiling entry point is asked
	// for more than MaxThreads threads.
	ErrTooManyThreads = errors.New("core: too many threads")
)
