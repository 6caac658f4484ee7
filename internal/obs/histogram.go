package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two latency buckets: bucket i
// holds observations whose microsecond latency has bit length i, i.e.
// lies in [2^(i-1), 2^i). 40 buckets reach past 2^39 µs (~9 days), far
// beyond any request a per-request timeout lets live. Observations past
// the last bucket's range clamp into it (the overflow bucket); Quantile
// bounds their estimate by the largest value actually observed.
const HistBuckets = 40

// Histogram is a fixed-size log2 latency histogram safe for concurrent
// Observe calls: every counter is atomic, so the hot path takes no locks
// and a metrics scrape never blocks a request.
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	// Track the maximum so the overflow bucket (and every bucket) can
	// report a bounded upper estimate instead of a theoretical bucket
	// ceiling no observation ever reached.
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Quantile returns an upper bound on the q-quantile latency (q in [0,1]):
// the top of the bucket holding the rank-q observation, clamped to the
// largest value actually observed — so the overflow bucket reports a
// bounded estimate rather than ~2^39 µs. An empty histogram returns 0.
// Concurrent Observes make the answer approximate — fine for a stats
// endpoint, which is its only caller.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	if rank > total {
		rank = total
	}
	maxSeen := h.maxUS.Load()
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Upper bound of bucket i: 2^i - 1 microseconds, clamped to
			// the observed maximum when the ceiling overshoots it. The
			// overflow bucket's ceiling instead *undershoots* (samples
			// past the bucket range clamp into it), so there the observed
			// maximum is the only honest upper bound.
			up := (int64(1) << i) - 1
			if up > maxSeen || i == HistBuckets-1 {
				up = maxSeen
			}
			return time.Duration(up) * time.Microsecond
		}
	}
	return time.Duration(maxSeen) * time.Microsecond
}

// HistogramSnapshot is the JSON shape of one histogram's summary (the
// server's /stats top-N query shapes).
type HistogramSnapshot struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P90US  int64 `json:"p90_us"`
	P99US  int64 `json:"p99_us"`
}

// Snapshot summarizes the histogram as a HistogramSnapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		P50US: h.Quantile(0.50).Microseconds(),
		P90US: h.Quantile(0.90).Microseconds(),
		P99US: h.Quantile(0.99).Microseconds(),
	}
	if s.Count > 0 {
		s.MeanUS = h.sumUS.Load() / s.Count
	}
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// cumulative fills le-bucket cumulative counts (dst[i] = observations
// <= 2^i - 1 µs, the upper edge of log2 bucket i), returning the total
// and the sum in microseconds. The exposition writer reads histograms
// through this.
func (h *Histogram) cumulative(dst *[HistBuckets]int64) (count, sumUS int64) {
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		dst[i] = cum
	}
	return h.count.Load(), h.sumUS.Load()
}
