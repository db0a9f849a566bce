package main

import "sort"

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile for it to be resolved from the run's own samples.
const tailMinBeyond = 10

// tailRank picks the highest nearest-rank percentile of n samples that
// still has tailMinBeyond samples above it: the value at ascending rank
// n-tailMinBeyond (1-based), whose percentile is 100·(n-10)/n. With
// fewer than tailMinBeyond+1 samples there is no such percentile; ok is
// false and the caller reports the maximum instead.
func tailRank(n int) (idx int, pct float64, ok bool) {
	if n <= tailMinBeyond {
		return n - 1, 100, false
	}
	r := n - tailMinBeyond
	return r - 1, 100 * float64(r) / float64(n), true
}

// tail is the run_s_tail figure: the tailRank sample, its percentile and
// how many samples it was chosen from.
type tail struct {
	value float64
	pct   float64
	n     int
	ok    bool
}

func tailOf(xs []float64) tail {
	s := sorted(xs)
	idx, pct, ok := tailRank(len(s))
	if idx < 0 {
		return tail{}
	}
	return tail{value: s[idx], pct: pct, n: len(s), ok: ok}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100).
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(float64(len(s))*p/100 + 0.999999999)
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
