package trace

// ThreadedRecorder collects one stream per thread, for later interleaving
// into a shared cache hierarchy (see cache.System.Interleave).
type ThreadedRecorder struct {
	Streams [][]Ref
}

// NewThreadedRecorder returns a recorder with capacity for n threads.
func NewThreadedRecorder(n int) *ThreadedRecorder {
	return &ThreadedRecorder{Streams: make([][]Ref, n)}
}

// Thread returns the Sink for thread t.
func (tr *ThreadedRecorder) Thread(t int) Sink {
	return SinkFunc(func(r Ref) { tr.Streams[t] = append(tr.Streams[t], r) })
}
