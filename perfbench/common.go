package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"upidb"
)

// closedLoop runs clients goroutines; each calls op back to back until
// d has passed since the common start or op returns false. It returns
// the time from the start until the last operation finished.
func closedLoop(clients int, d time.Duration, op func(client int) bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && op(c) {
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// zipf draws indexes 0..n-1 with P(i) proportional to 1/(i+1)^s, the
// popularity law the dataset generators use.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

// at maps a uniform point u in [0, 1) to its index.
func (z zipf) at(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// stratifier draws the uniform points that pick operation values.
// Drawing through strata instead of independently fixes how many draws
// land in each part of a distribution, so every block of operations
// carries the same amount of heavy work and a run's totals do not
// swing with the luck of the draw; the seed still moves every point.
type stratifier struct {
	rng *rand.Rand
	off map[string]float64 // per class of operations
}

func newStratifier(rng *rand.Rand) *stratifier {
	return &stratifier{rng: rng, off: make(map[string]float64)}
}

// goldenStep advances a class's offset from block to block, spreading
// the offsets of a run evenly over [0, 1).
const goldenStep = 0.6180339887498949

// draw returns n points for one block of class: one inside each of the
// n equal strata of [0, 1), at the class's current offset, in random
// order.
func (s *stratifier) draw(class string, n int) []float64 {
	r, ok := s.off[class]
	if !ok {
		r = s.rng.Float64()
	}
	s.off[class] = math.Mod(r+goldenStep, 1)
	us := make([]float64, n)
	for j := range us {
		us[j] = (float64(j) + r) / float64(n)
	}
	s.rng.Shuffle(n, func(i, j int) { us[i], us[j] = us[j], us[i] })
	return us
}

// tupleBytes is the benchmark's fixed logical size of a tuple: 8 bytes
// per number, the bytes of every string, and the payload. It does not
// depend on the engine's encoding, so space_amp shows an encoding
// change.
func tupleBytes(t *upidb.Tuple) int64 {
	n := int64(16 + len(t.Payload))
	for _, d := range t.Det {
		n += int64(len(d.Name) + len(d.Value))
	}
	for _, u := range t.Unc {
		n += int64(len(u.Name))
		for _, a := range u.Dist {
			n += int64(len(a.Value) + 8)
		}
	}
	return n
}

// obsBytes is the logical size of an observation, by the same rule.
func obsBytes(o *upidb.Observation) int64 {
	n := int64(8 + 4*8 + 2*8 + len(o.Payload))
	for _, a := range o.Segment {
		n += int64(len(a.Value) + 8)
	}
	return n
}

// metricsDelta reads the change of the DB's metric registry between
// two snapshots.
type metricsDelta struct{ a, b upidb.MetricsSnapshot }

// series reports whether key is a series of family fam.
func series(key, fam string) bool {
	return key == fam || strings.HasPrefix(key, fam+"{")
}

// counter sums the change of every series of a counter family whose
// key contains match ("" matches all).
func (d metricsDelta) counter(fam, match string) float64 {
	total := 0.0
	for k, v := range d.b.Counters {
		if series(k, fam) && strings.Contains(k, match) {
			total += float64(v - d.a.Counters[k])
		}
	}
	return total
}

// hist returns the change of a histogram family's count and sum over
// the series keep accepts, and the per-bucket count changes.
func (d metricsDelta) hist(fam string, keep func(key string) bool) (count, sum float64, bounds []float64, buckets []int64) {
	for k, hb := range d.b.Histograms {
		if !series(k, fam) || (keep != nil && !keep(k)) {
			continue
		}
		ha := d.a.Histograms[k]
		count += float64(hb.Count - ha.Count)
		sum += hb.Sum - ha.Sum
		if buckets == nil {
			bounds = hb.Bounds
			buckets = make([]int64, len(hb.Counts))
		}
		for i := range hb.Counts {
			var prev int64
			if i < len(ha.Counts) {
				prev = ha.Counts[i]
			}
			buckets[i] += hb.Counts[i] - prev
		}
	}
	return count, sum, bounds, buckets
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket that holds it, the way
// Prometheus's histogram_quantile does.
func histQuantile(q float64, bounds []float64, buckets []int64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var acc float64
	for i, c := range buckets {
		if acc+float64(c) >= want && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) { // overflow bucket: report its lower edge
				return lo
			}
			return lo + (bounds[i]-lo)*(want-acc)/float64(c)
		}
		acc += float64(c)
	}
	return bounds[len(bounds)-1]
}

// diskDelta is the simulated disk's activity between two readings.
func diskDelta(a, b upidb.DiskStats) upidb.DiskStats {
	return upidb.DiskStats{
		Seeks:        b.Seeks - a.Seeks,
		SequentialIO: b.SequentialIO - a.SequentialIO,
		BytesRead:    b.BytesRead - a.BytesRead,
		BytesWritten: b.BytesWritten - a.BytesWritten,
		FileOpens:    b.FileOpens - a.FileOpens,
		Elapsed:      b.Elapsed - a.Elapsed,
	}
}

// setSim sets the sim.* per-op figures from a count pass's disk delta.
func (f *figures) setSim(d upidb.DiskStats, ops int, logicalWritten int64) {
	f.set("sim.seeks_per_op", ratio(float64(d.Seeks), float64(ops)))
	f.set("sim.read_kb_per_op", ratio(float64(d.BytesRead)/1024, float64(ops)))
	f.set("sim.opens_per_op", ratio(float64(d.FileOpens), float64(ops)))
	f.set("sim.write_amp", ratio(float64(d.BytesWritten), float64(logicalWritten)))
}

// counts are the exact totals of one count pass. Two passes over the
// same op list on identically built instances must agree field by
// field.
type counts struct {
	ModeledMS      float64
	Seeks          int64
	HeapEntries    int64
	CutoffPointers int64
	Candidates     int64
}

func (f *figures) setCounts(c counts) {
	f.set("count.modeled_ms", c.ModeledMS)
	f.set("count.seeks", float64(c.Seeks))
	f.set("count.heap_entries", float64(c.HeapEntries))
	f.set("count.cutoff_pointers", float64(c.CutoffPointers))
	f.set("count.candidates", float64(c.Candidates))
}

// zeroLayers sets every per-layer figure the workload has not set to
// 0: the layer is not on this workload's path.
func (f *figures) zeroLayers() {
	for name := range layerMoves {
		if _, ok := f.vals[name]; !ok {
			f.vals[name] = 0
		}
	}
}

// spanStats are the per-layer timings read off one traced phase.
type spanStats struct {
	runSelf   []time.Duration // Run, minus the dispatch instants inside it
	drain     []time.Duration // All: first pull plus the rest, per op
	scans     []time.Duration // every partition scan
	slowest   []float64       // per execution: slowest scan / execution time
	secondary []time.Duration // whole secondary-PTQ operations
	inserts   []time.Duration // Insert calls
	http      []time.Duration // HTTP requests, send to last byte
}

func readSpans(spans []span) spanStats {
	var st spanStats
	self := selfTimes(spans)
	exec := make(map[int64]time.Duration)
	slow := make(map[int64]time.Duration)
	for _, s := range spans {
		switch s.Name {
		case spanRun:
			st.runSelf = append(st.runSelf, self[[2]int64{s.Req, int64(s.ID)}])
		case spanFirstPull, spanDrainRest, spanCollect:
			exec[s.Req] += s.dur()
		case spanScan:
			st.scans = append(st.scans, s.dur())
			slow[s.Req] = max(slow[s.Req], s.dur())
		case spanInsert:
			st.inserts = append(st.inserts, s.dur())
		case spanHTTP:
			st.http = append(st.http, s.dur())
		case spanOp + ":" + opSecondary:
			st.secondary = append(st.secondary, s.dur())
		}
	}
	drains := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Name == spanFirstPull || s.Name == spanDrainRest {
			drains[s.Req] += s.dur()
		}
	}
	for _, d := range drains {
		st.drain = append(st.drain, d)
	}
	for req, d := range exec {
		if sl, ok := slow[req]; ok && d > 0 {
			st.slowest = append(st.slowest, float64(sl)/float64(d))
		}
	}
	return st
}

// countSeed derives the seed of a count pass's op list from the run's
// seed, so the count pass and the measured phase draw different lists.
func countSeed(seed int64) int64 { return seed ^ 0x5eed }
