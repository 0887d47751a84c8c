package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile read from fewer tail samples is one outlier's value, not the
// tail's.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It fails
// when fewer than minBeyond samples lie beyond the selected rank, so a p99
// needs at least 1000 samples. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank], nil
}

// median is the middle value of xs (the mean of the middle two for an even
// count); it needs no tail, so it never fails on a non-empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest share
// each. Unlike a median it moves smoothly when the sample is a mixture of
// two modes, such as set-ups that did or did not wait out one reconnect.
func trimmedMean(xs []float64, share float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(share * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed span of monotonic time.
type interval struct{ start, end time.Duration }

// unionLen is the total length covered by the intervals, counting overlaps
// once. The slice is sorted in place.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent, so a child that outlives its parent
// (an abandoned hop) never drives self time negative.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.end - parent.start - unionLen(clipped)
}
