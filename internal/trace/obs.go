package trace

import "repro/internal/obs"

// ObserveInto merges the emitter's shard-local stream statistics into reg:
// "trace.refs_streamed" (references delivered downstream) and
// "trace.batches_flushed" (blocks delivered). Call once when the stream
// ends; Program.RunThread does this for every workload run.
func (e *Emitter) ObserveInto(reg *obs.Registry) {
	reg.Counter("trace.refs_streamed").Add(e.refs)
	reg.Counter("trace.batches_flushed").Add(e.flushes)
}
