package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"upidb"
	"upidb/internal/dataset"
)

// cartel-spatial: a closed loop over a continuous UPI of GPS
// observations. It is the only workload that runs cupi, the R-Tree,
// the spatial planner and the spatial statistics, and it bypasses
// shard, fracture, upi and the WAL.
const (
	cartelScale    = 0.2 // of the generator's default 150k observations
	cartelClients  = 2
	cartelMinR     = 25.0   // meters: an R-Tree probe
	cartelMaxR     = 1000.0 // meters: wide enough for the full-scan route
	cartelCountOps = 100
	cartelMaxRate  = 1500 // ops/s the op list and insert pool are sized for, 4x the rate measured
)

// cartelQTs are the segment-PTQ thresholds (0.2 to 0.7, across the
// planner's known segment misroute) and circleQTs the circle ones.
var (
	cartelSegQTs    = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	cartelCircleQTs = []float64{0.3, 0.5, 0.7}
)

type cartelEnv struct {
	db   *upidb.DB
	tab  *upidb.SpatialTable
	base []*upidb.Observation // bulk-loaded
	pool []*upidb.Observation // inserted in list order during the phases
	data *dataset.Cartel
}

func (e *cartelEnv) close(context.Context) error { return e.db.Close() }

// buildCartel generates the observations from the generator's fixed
// seed (--seed draws the op lists) plus an insert pool that continues
// the same stream, and bulk-loads the base set.
func buildCartel(size, seconds float64) (*cartelEnv, error) {
	cfg := dataset.DefaultCartelConfig().Scaled(cartelScale * size)
	n := cfg.Observations
	cfg.Observations += int(cartelMaxRate * seconds * cartelInsertShare)
	data, err := dataset.GenerateCartel(cfg)
	if err != nil {
		return nil, err
	}
	db, err := upidb.Create("")
	if err != nil {
		return nil, err
	}
	e := &cartelEnv{db: db, base: data.Observations[:n], pool: data.Observations[n:], data: data}
	if e.tab, err = db.BulkLoadSpatial("cars", e.base); err != nil {
		_ = db.Close()
		return nil, err
	}
	return e, nil
}

// cartelInsertShare is the share of operations that insert: 30 in 100
// by count, a few percent of the time.
const cartelInsertShare = 0.3

// cartelOp is one operation of the mix.
type cartelOp struct {
	kind   string
	center upidb.Point
	radius float64
	seg    string
	qt     float64
	ins    int // pool index of an insert
	stream bool
	check  bool
}

func (op cartelOp) query() upidb.Query {
	if op.kind == opCircle {
		return upidb.Circle(op.center, op.radius, op.qt)
	}
	return upidb.Segment(op.seg, op.qt)
}

func (op cartelOp) String() string {
	if op.kind == opCircle {
		return fmt.Sprintf("circle (%.0f,%.0f) r=%.0f qt=%g stream=%v", op.center.X, op.center.Y, op.radius, op.qt, op.stream)
	}
	return fmt.Sprintf("segment %s qt=%g stream=%v", op.seg, op.qt, op.stream)
}

// cartelBlock builds 100 operations: 40 circles (centers spread over
// the road network's extent, radii log-uniform from cartelMinR to
// cartelMaxR), 30 segment PTQs (segments weighted by traffic), and 30
// inserts; queries drain half with All, half with Collect. nextIns
// numbers the inserts through the pool.
func cartelBlock(st *stratifier, e *cartelEnv, nextIns *int) []cartelOp {
	rng := st.rng
	var ops []cartelOp
	ext := e.data.Extent
	xs, ys, rs := st.draw("x", 40), st.draw("y", 40), st.draw("radius", 40)
	for j := range xs {
		ops = append(ops, cartelOp{
			kind:   opCircle,
			center: upidb.Point{X: ext.MinX + xs[j]*(ext.MaxX-ext.MinX), Y: ext.MinY + ys[j]*(ext.MaxY-ext.MinY)},
			radius: cartelMinR * math.Pow(cartelMaxR/cartelMinR, rs[j]),
			qt:     cartelCircleQTs[j%len(cartelCircleQTs)],
			stream: j%2 == 0,
		})
	}
	for j, u := range st.draw("segment", 30) {
		o := e.base[int(u*float64(len(e.base)))]
		ops = append(ops, cartelOp{kind: opSegment, seg: o.Segment[0].Value,
			qt: cartelSegQTs[j%len(cartelSegQTs)], stream: j%2 == 0})
	}
	for range 30 {
		ops = append(ops, cartelOp{kind: opInsert, ins: *nextIns})
		*nextIns++
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].check = ops[i].kind != opInsert && rng.Intn(checkOneIn) == 0
	}
	return ops
}

// cartelList returns at least n operations whose inserts stay inside
// the pool.
func cartelList(rng *rand.Rand, e *cartelEnv, n int, firstIns int) []cartelOp {
	st := newStratifier(rng)
	var ops []cartelOp
	next := firstIns
	for len(ops) < n {
		ops = append(ops, cartelBlock(st, e, &next)...)
	}
	for i := range ops {
		if ops[i].kind == opInsert && ops[i].ins >= len(e.pool) {
			ops[i].kind = opSegment // the pool ran out: the list is longer than any run needs
			ops[i].seg, ops[i].qt = e.base[0].Segment[0].Value, cartelSegQTs[0]
		}
	}
	return ops
}

// spatialChecked is a sampled answer with the times that decide which
// concurrent inserts it must, may, or must not contain.
type spatialChecked struct {
	op         cartelOp
	rows       []scored
	sorted     bool  // Collect: order must match too
	start, end int64 // Run start and drain end, ns since the phase epoch
}

// insertTimes records, per pool item, when its Insert was called and
// when it returned (ns since epoch, 0 = not inserted).
type insertTimes struct {
	epoch         time.Time
	called, acked []atomic.Int64
}

func (t *insertTimes) since() int64 { return int64(time.Since(t.epoch)) }

type cartelSamples struct {
	reads, ttfr, writes []sample
	done                []time.Duration // completion time of every operation
	ops                 int64
	errs                []string
	checks              []spatialChecked
}

// execSpatial runs one query and drains it, recording spans on ot.
func execSpatial(ctx context.Context, tab *upidb.SpatialTable, op cartelOp, keep bool, ot *opTrace) (readOut, error) {
	start := time.Now()
	id := ot.start(spanRun)
	res, err := tab.Run(ctx, op.query())
	ot.end(id)
	if err != nil {
		return readOut{}, err
	}
	return drain(res, start, op.stream, keep, func(r upidb.SpatialResult) scored { return scored{r.Obs.ID, r.Confidence} }, ot)
}

func cartelPhase(ctx context.Context, e *cartelEnv, ops []cartelOp, d time.Duration, tr *tracer, times *insertTimes) (cartelSamples, time.Duration, error) {
	// Both phases of a traced run start from the same cold caches.
	if err := e.tab.DropCaches(); err != nil {
		return cartelSamples{}, 0, err
	}
	per := make([]cartelSamples, cartelClients)
	since := times.since
	var next atomic.Int64
	start := time.Now()
	elapsed := closedLoop(cartelClients, d, func(c int) bool {
		s := &per[c]
		i := int(next.Add(1) - 1)
		if i >= len(ops) {
			s.errs = append(s.errs, "the operation list ran out; raise cartelMaxRate")
			return false
		}
		op := ops[i]
		ot := tr.begin()
		root := ot.start(spanOp + ":" + op.kind)
		defer func() {
			ot.end(root)
			ot.finish()
			s.done = append(s.done, time.Since(start))
		}()
		s.ops++
		if op.kind == opInsert {
			id := ot.start(spanInsert)
			times.called[op.ins].Store(since())
			t0 := time.Now()
			err := e.tab.Insert(e.pool[op.ins])
			lat := time.Since(t0)
			times.acked[op.ins].Store(since())
			ot.end(id)
			if err != nil {
				s.errs = append(s.errs, fmt.Sprintf("insert %d: %v", e.pool[op.ins].ID, err))
				return true
			}
			s.writes = append(s.writes, sample{time.Since(start), lat})
			return true
		}
		t0 := since()
		out, err := execSpatial(ctx, e.tab, op, op.check, ot)
		if err != nil {
			s.errs = append(s.errs, fmt.Sprintf("%v: %v", op, err))
			return true
		}
		at := time.Since(start)
		s.reads = append(s.reads, sample{at, out.total})
		if out.hasTTFR {
			s.ttfr = append(s.ttfr, sample{at, out.ttfr})
		}
		if op.check {
			s.checks = append(s.checks, spatialChecked{op: op, rows: out.rows, sorted: !op.stream, start: t0, end: since()})
		}
		return true
	})
	var all cartelSamples
	for _, s := range per {
		all.reads = append(all.reads, s.reads...)
		all.ttfr = append(all.ttfr, s.ttfr...)
		all.writes = append(all.writes, s.writes...)
		all.done = append(all.done, s.done...)
		all.ops += s.ops
		all.errs = append(all.errs, s.errs...)
		all.checks = append(all.checks, s.checks...)
	}
	return all, elapsed, nil
}

// spatialConf is the oracle's confidence of o for op (0 = no match).
func spatialConf(op cartelOp, o *upidb.Observation) float64 {
	var c float64
	if op.kind == opCircle {
		c = o.Loc.ProbInCircle(op.center, op.radius)
	} else {
		for _, a := range o.Segment {
			if a.Value == op.seg {
				c = a.Prob
			}
		}
	}
	if c > 0 && c >= op.qt {
		return c
	}
	return 0
}

// verifySpatial checks a sampled answer by brute force: every base
// observation and every insert acknowledged before the query started
// must appear if it matches; an insert still in flight may appear;
// nothing else may, and every confidence must match.
func verifySpatial(e *cartelEnv, times *insertTimes, c spatialChecked) error {
	var want []scored
	maybe := make(map[uint64]float64)
	for _, o := range e.base {
		if conf := spatialConf(c.op, o); conf > 0 {
			want = append(want, scored{o.ID, conf})
		}
	}
	for i, o := range e.pool {
		called, acked := times.called[i].Load(), times.acked[i].Load()
		if called == 0 || called >= c.end {
			continue
		}
		conf := spatialConf(c.op, o)
		if conf == 0 {
			continue
		}
		if acked != 0 && acked < c.start {
			want = append(want, scored{o.ID, conf})
		} else {
			maybe[o.ID] = conf
		}
	}
	got := slices.Clone(c.rows)
	if !c.sorted {
		sortScored(got)
	} else if !slices.IsSortedFunc(got, cmpScored) {
		return fmt.Errorf("Collect returned results out of order")
	}
	var kept []scored
	for _, r := range got {
		if conf, ok := maybe[r.ID]; ok {
			if math.Abs(conf-r.Conf) > confEps {
				return fmt.Errorf("in-flight insert %d has confidence %.9f, want %.9f", r.ID, r.Conf, conf)
			}
			continue
		}
		kept = append(kept, r)
	}
	sortScored(want)
	return sameAnswer(kept, want)
}

// cartelCount is one count pass: the fixed op list run single-client
// from cold caches, each query costed with EXPLAIN first.
type cartelCount struct {
	c                  counts
	ops                int
	queries, results   int
	circles, fullScans int
	estCost, charged   time.Duration
	disk               upidb.DiskStats
	written            int64
}

func cartelCountPass(ctx context.Context, e *cartelEnv, ops []cartelOp) (cartelCount, error) {
	var r cartelCount
	if err := e.tab.DropCaches(); err != nil {
		return r, err
	}
	d0 := e.db.DiskStats()
	r.ops = len(ops)
	for _, op := range ops {
		if op.kind == opInsert {
			if err := e.tab.Insert(e.pool[op.ins]); err != nil {
				return r, fmt.Errorf("count pass: insert: %w", err)
			}
			r.written += obsBytes(e.pool[op.ins])
			continue
		}
		ex, err := e.tab.Run(ctx, op.query().WithExplain())
		if err != nil {
			return r, fmt.Errorf("count pass: explain %v: %w", op, err)
		}
		est, err := chosenCost(ex.Info().Explain)
		if err != nil {
			return r, fmt.Errorf("count pass: %v: %w", op, err)
		}
		q0 := e.db.DiskStats()
		out, err := execSpatial(ctx, e.tab, op, false, nil)
		if err != nil {
			return r, fmt.Errorf("count pass: %v: %w", op, err)
		}
		r.estCost += est
		r.charged += diskDelta(q0, e.db.DiskStats()).Elapsed
		r.queries++
		r.results += out.n
		r.c.HeapEntries += int64(out.info.HeapEntries)
		r.c.Candidates += int64(out.info.Candidates)
		if op.kind == opCircle {
			r.circles++
			if out.info.Plan == "SpatialFullScan" {
				r.fullScans++
			}
		}
	}
	r.disk = diskDelta(d0, e.db.DiskStats())
	r.c.ModeledMS = float64(r.disk.Elapsed) / float64(time.Millisecond)
	r.c.Seeks = r.disk.Seeks
	return r, nil
}

// chosenCost reads the estimated cost of the chosen plan (the line
// marked '*') from EXPLAIN output.
func chosenCost(explain string) (time.Duration, error) {
	for _, line := range strings.Split(explain, "\n") {
		if !strings.HasPrefix(line, "*") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "cost="); ok {
				return time.ParseDuration(v)
			}
		}
	}
	return 0, fmt.Errorf("no chosen plan with a cost in EXPLAIN output %q", explain)
}

func runCartel(ctx context.Context, cfg runCfg) (*report, error) {
	rep := &report{figs: newFigures()}
	var passes []cartelCount
	phases := 1
	if cfg.trace {
		phases = 2
	}
	listLen := int(cartelMaxRate * cfg.seconds.Seconds())
	e, setupS, err := buildInstances(ctx, func() (*cartelEnv, error) {
		return buildCartel(cfg.size, float64(phases)*cfg.seconds.Seconds())
	}, func(_ int, e *cartelEnv) error {
		if !cfg.trace {
			return nil
		}
		ops := cartelList(rand.New(rand.NewSource(countSeed(cfg.seed))), e, cartelCountOps, 0)
		p, err := cartelCountPass(ctx, e, ops)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer e.close(ctx)
	times := &insertTimes{epoch: time.Now(), called: make([]atomic.Int64, len(e.pool)), acked: make([]atomic.Int64, len(e.pool))}
	f := rep.figs
	verify := func(s cartelSamples) {
		rep.attempted += s.ops
		for _, msg := range s.errs {
			rep.fail("%s", msg)
		}
		for _, c := range s.checks {
			if err := verifySpatial(e, times, c); err != nil {
				rep.fail("%v: %v", c.op, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	ops := cartelList(rng, e, listLen, 0)
	d0 := e.db.DiskStats()
	rt0 := readRuntime()
	s, elapsed, err := cartelPhase(ctx, e, ops, cfg.seconds, nil, times)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	modeled := diskDelta(d0, e.db.DiskStats()).Elapsed
	verify(s)
	if !cfg.trace {
		logical := int64(0)
		for _, o := range e.base {
			logical += obsBytes(o)
		}
		for i, o := range e.pool {
			if times.acked[i].Load() != 0 {
				logical += obsBytes(o)
			}
		}
		f.set("setup_s", setupS)
		f.set("throughput_ops_s", roundRate(s.done, cfg.seconds))
		f.roundMedian("read_p50_ms", s.reads, cfg.seconds)
		f.pct("read_p99_ms", msOf(s.reads), 0.99)
		f.roundMedian("ttfr_p50_ms", s.ttfr, cfg.seconds)
		f.roundMedian("write_p50_ms", s.writes, cfg.seconds)
		f.set("modeled_ms_per_op", ratio(float64(modeled)/float64(time.Millisecond), float64(s.ops)))
		f.set("mem_mb", memMB())
		f.set("space_amp", ratio(float64(e.db.TotalSizeBytes()), float64(logical)))
		return rep, nil
	}

	// The traced phase continues through the insert pool where the
	// untraced one stopped.
	inserted := 0
	for i := range e.pool {
		if times.called[i].Load() != 0 {
			inserted = i + 1
		}
	}
	rep.spans = newTracer()
	tops := cartelList(rand.New(rand.NewSource(cfg.seed)), e, listLen, inserted)
	ts, tElapsed, err := cartelPhase(ctx, e, tops, cfg.seconds, rep.spans, times)
	if err != nil {
		return nil, err
	}
	verify(ts)

	if err := sameCounts(passes[0].c, passes[1].c); err != nil {
		rep.fail("count pass: %v", err)
	}
	p := passes[0]
	sp := readSpans(rep.spans.all())
	f.setRuntime(rt0, rt1, s.ops)
	f.pct("write_p99_ms", msOf(s.writes), 0.99)
	f.set("trace.overhead_frac", 1-(float64(ts.ops)/tElapsed.Seconds())/(float64(s.ops)/elapsed.Seconds()))
	f.pctOrZero("upidb.run_us_p50", durUS(sp.runSelf), 0.5)
	f.pctOrZero("upidb.drain_us_p50", durUS(sp.drain), 0.5)
	f.pctOrZero("cupi.insert_us_p99", durUS(sp.inserts), 0.99)
	f.set("planner.est_over_charged", ratio(float64(p.estCost), float64(p.charged)))
	f.set("cupi.candidates_per_result", ratio(float64(p.c.Candidates), float64(p.results)))
	f.set("cupi.heap_fetches_per_query", ratio(float64(p.c.HeapEntries), float64(p.queries)))
	f.set("cupi.fullscan_route_frac", ratio(float64(p.fullScans), float64(p.circles)))
	f.setSim(p.disk, p.ops, p.written)
	f.setCounts(p.c)
	f.zeroLayers()
	return rep, nil
}
