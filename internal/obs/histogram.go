package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket 0 holds the value 0,
// bucket k (1 <= k <= 64) holds values in [2^(k-1), 2^k - 1].
const histBuckets = 65

// Histogram is an atomic log2 histogram of uint64 observations (per-set
// miss counts, batch sizes, RCD-style distances). Fixed buckets keep
// Observe allocation-free and mergeable without locks.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Bucket is one populated log2 bucket of a histogram snapshot: the value
// range [Lo, Hi] and the observation count.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the serializable state of a Histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot captures the populated buckets. Concurrent Observe calls may be
// in flight; each bucket read is individually atomic, which is the usual
// monitoring contract.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			b.Hi = 1<<i - 1
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}
