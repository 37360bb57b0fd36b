package main

import (
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // unsorted on purpose
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = must be refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{0, 0.5, 0},
	} {
		got, err := percentile(xs[len(xs)-c.n:], c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want refusal", c.p*100, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestFiguresRecordTooFewSamples(t *testing.T) {
	f := newFigures()
	f.pct("read_p99_ms", make([]float64, 500), 0.99)
	if f.err == nil {
		t.Fatal("a p99 over 500 samples was accepted")
	}
	f = newFigures()
	f.pctOrZero("cupi.insert_us_p99", nil, 0.99)
	if f.err != nil || f.vals["cupi.insert_us_p99"] != 0 {
		t.Fatalf("a layer without samples: %v, %v", f.vals, f.err)
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"read_p50_ms", "upidb.run_us_p50", "9lives", "a-b.c_d"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/x", "ünï", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "KiB"} {
		if !validUnit(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "m s", "seventeen-letters"} {
		if validUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 0, Parent: noParent, Name: spanCollect, Start: 0, End: 100},
		{Req: 1, ID: 1, Parent: 0, Name: spanScan, Start: 10, End: 40},
		{Req: 1, ID: 2, Parent: 0, Name: spanScan, Start: 30, End: 60},  // overlaps the first
		{Req: 1, ID: 3, Parent: 0, Name: spanScan, Start: 90, End: 150}, // runs past the parent
		{Req: 1, ID: 4, Parent: 0, Name: spanDispatch, Start: 70, End: 70},
		{Req: 2, ID: 0, Parent: noParent, Name: spanRun, Start: 0, End: 5},
	}
	self := selfTimes(spans)
	if got := self[[2]int64{1, 0}]; got != 100-50-10 {
		t.Errorf("collect self time = %v, want 40", got)
	}
	if got := self[[2]int64{2, 0}]; got != 5 {
		t.Errorf("childless span self time = %v, want 5", got)
	}
}

func TestRoundFiguresShrugOffOneSlowRound(t *testing.T) {
	phase := 10 * time.Second
	var done []time.Duration
	var ss []sample
	for i := 1; i <= 1000; i++ {
		at := time.Duration(i) * phase / 1000
		done = append(done, at)
		d := time.Millisecond
		if at < phase/rounds {
			d = 50 * time.Millisecond // the first round stalls
		}
		ss = append(ss, sample{at, d})
	}
	if got := roundRate(done, phase); got < 99 || got > 101 {
		t.Errorf("round rate = %v, want 100/s", got)
	}
	f := newFigures()
	f.roundMedian("read_p50_ms", ss, phase)
	if f.err != nil || f.vals["read_p50_ms"] != 1 {
		t.Errorf("round median = %v, %v; want 1 ms", f.vals["read_p50_ms"], f.err)
	}
	f.roundMedian("ttfr_p50_ms", ss[:100], phase)
	if f.err == nil {
		t.Error("rounds without samples were accepted")
	}
}
