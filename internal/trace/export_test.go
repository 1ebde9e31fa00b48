package trace

// Reset discards all recorded references but keeps the backing storage.
func (rec *Recorder) Reset() { rec.Refs = rec.Refs[:0] }

// Total returns the number of references recorded across all threads.
func (tr *ThreadedRecorder) Total() int {
	n := 0
	for _, s := range tr.Streams {
		n += len(s)
	}
	return n
}
