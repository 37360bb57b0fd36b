package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
// It fails when fewer than minBeyond samples lie above the chosen
// rank, so a tail figure is never read off a handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based; the slack absorbs p's binary rounding
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p*100, minBeyond, n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the percentile rule at p=0.5.
func median(xs []float64) (float64, error) { return percentile(xs, 0.5) }

// durUS converts durations to float microseconds.
func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is num/den, 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOf returns the plain median of a short list (set-up times,
// where the percentile rule's sample floor does not apply).
func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOf returns the mean of xs, 0 for none.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// figures collects the metric values of one run and the first error
// met while computing them.
type figures struct {
	vals map[string]float64
	err  error
}

func newFigures() *figures { return &figures{vals: make(map[string]float64)} }

func (f *figures) set(name string, v float64) { f.vals[name] = v }

// pct sets name to the p-quantile of xs, recording an error when the
// sample count is too small for it.
func (f *figures) pct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("%s: %w", name, err)
	}
	f.vals[name] = v
}

// pctOrZero sets name to the p-quantile of xs, or 0 when the workload
// produced no samples for it (per-layer figures only).
func (f *figures) pctOrZero(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		f.vals[name] = 0
		return
	}
	f.pct(name, xs, p)
}

// sample is one latency with the time, from the start of its phase,
// at which its operation completed (closed loop) or was due (open
// loop).
type sample struct{ at, d time.Duration }

func msOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.d) / float64(time.Millisecond)
	}
	return out
}

// rounds is how many equal slices of a phase the median figures are
// taken over: a median over rounds of each round's median (or rate)
// shrugs off a stall of the host that hits one or two rounds.
const rounds = 5

// byRound splits ss into rounds of the phase; a sample at or past the
// end falls in the last round.
func byRound(ss []sample, phase time.Duration) [rounds][]sample {
	var rs [rounds][]sample
	for _, s := range ss {
		r := min(int(s.at*rounds/phase), rounds-1)
		rs[r] = append(rs[r], s)
	}
	return rs
}

// roundMedian sets name to the median over rounds of each round's
// median latency, in ms.
func (f *figures) roundMedian(name string, ss []sample, phase time.Duration) {
	var meds []float64
	for _, r := range byRound(ss, phase) {
		m, err := median(msOf(r))
		if err != nil {
			if f.err == nil {
				f.err = fmt.Errorf("%s: a round of the phase: %w", name, err)
			}
			return
		}
		meds = append(meds, m)
	}
	f.vals[name] = medianOf(meds)
}

// roundRate is the median over rounds of operations completed per
// second; done holds each operation's completion time. A round's rate
// runs from the last completion of the round before to its own last
// completion, so it carries the full precision of the clock.
func roundRate(done []time.Duration, phase time.Duration) float64 {
	var n [rounds]int
	var last [rounds]time.Duration
	for _, at := range done {
		if at < phase {
			r := int(at * rounds / phase)
			n[r]++
			last[r] = max(last[r], at)
		}
	}
	var rates []float64
	var prev time.Duration
	for r := range n {
		if n[r] > 0 && last[r] > prev {
			rates = append(rates, float64(n[r])/(last[r]-prev).Seconds())
			prev = last[r]
		}
	}
	return medianOf(rates)
}
