package main

import (
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// rank is the 1-based nearest rank of the pct-th percentile of n samples.
func rank(n, pct int) int { return max(1, (pct*n+99)/100) }

// supported reports whether the pct-th percentile of n samples has at
// least minTail samples beyond it.
func supported(n, pct int) bool { return n > 0 && n-rank(n, pct) >= minTail }

// tailPct is the highest percentile, up to the 99th, that n samples
// support; with fewer than 2*minTail samples it is the unsupported median.
func tailPct(n int) int {
	for pct := 99; pct > 50; pct-- {
		if supported(n, pct) {
			return pct
		}
	}
	return 50
}

// percentile returns the nearest-rank pct-th percentile of sorted
// (ascending) and whether the sample count supports it.
func percentile(sorted []float64, pct int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	return sorted[rank(n, pct)-1], supported(n, pct)
}

// latency is one operation kind's latency distribution in a run.
type latency struct {
	ms []float64
}

func (l *latency) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

func (l *latency) merge(o *latency) { l.ms = append(l.ms, o.ms...) }

// summary is what a run reports for one latency distribution: the sample
// count, the median, and the tail: the p99 when the count supports it,
// otherwise the highest percentile it does support (TailPct says which).
type summary struct {
	N       int
	P50     float64
	P50OK   bool
	Tail    float64
	TailPct int
}

func (l *latency) summary() summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{N: len(s), TailPct: tailPct(len(s))}
	out.P50, out.P50OK = percentile(s, 50)
	out.Tail, _ = percentile(s, out.TailPct)
	return out
}

// median returns the median of vals (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, giving 0 for an empty denominator so that no metric is
// ever NaN or infinite.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
