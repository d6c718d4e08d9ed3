package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds
// (HDR-histogram style). Values below 2^histSubBits ns get a bucket
// each; above that, every power-of-two range is cut into
// 2^histSubBits equal buckets. A quantile is reported as its bucket's
// midpoint, so it is within histRelErr of the exact sample value. One
// hist is owned by one goroutine; merge them after the run.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 6
	histMaxBits = 36 // values at or above 2^36 ns (~69 s) share the top bucket
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
	// histRelErr bounds |reported - exact| / exact for any quantile:
	// half a bucket width over the bucket's lower bound.
	histRelErr = 1.0 / (2 << histSubBits)
)

func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - 1<<histSubBits
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	m := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	lo := m << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds: the value of rank
// ceil(q*n), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
