package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank
// before it is reported: a tail figure resting on fewer is one or two
// outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, which it sorts in place. It refuses (ok == false) when fewer than
// minBeyond samples rank above the result, so p99 needs 1000 samples
// and p90 needs 100.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	// 1-based nearest rank; the epsilon keeps p·n/100 that is an exact
	// integer from rounding up past it.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank-1], true
}

// chunkedPercentile splits xs, which must be in time order, into
// consecutive equal chunks of at least chunk samples, takes percentile
// p of each and returns their median. A transient stall of the host
// then moves one chunk's figure, not the run's. It refuses when xs
// holds no whole chunk or a chunk cannot support p.
func chunkedPercentile(xs []float64, p float64, chunk int) (float64, bool) {
	k := len(xs) / chunk
	if k == 0 {
		return 0, false
	}
	size := len(xs) / k
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		v, ok := percentile(append([]float64(nil), xs[i*size:(i+1)*size]...), p)
		if !ok {
			return 0, false
		}
		per = append(per, v)
	}
	return median(per), true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method Python's statistics.quantiles(xs, n=4) uses, so a
// spread computed here matches one computed from the same values
// there. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles of %d values", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// statistics.quantiles, method="exclusive", n=4: the i-th cut
	// point interpolates (or, for tiny samples, extrapolates) between
	// the two order statistics around position i*(n+1)/4.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// iqrShare is the interquartile range of xs as a share of its median:
// the run-to-run spread a benchmark metric is judged by.
func iqrShare(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(append([]float64(nil), xs...))
	if med == 0 {
		return 0, fmt.Errorf("median is zero")
	}
	return (q3 - q1) / math.Abs(med), nil
}

// mean returns the arithmetic mean of xs (0 for none).
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

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
