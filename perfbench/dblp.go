package main

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"upidb"
	"upidb/internal/dataset"
)

// dblp-read: a read-only closed loop over a large, sharded, fractured
// author table on the memory backend. It puts the planner and plan
// cache, shard scatter/gather, the fracture k-way stream, the upi
// cursors and buffer-pool misses on the critical path, and does no
// WAL, flush, merge or HTTP work.
const (
	dblpScale     = 0.5 // of the generator's default 70k authors
	dblpShards    = 4
	dblpFractures = 6   // per shard, built by set-up inserts and flushes
	dblpMainShare = 0.7 // share of the authors in the bulk-loaded main
	dblpCutoff    = 0.1
	dblpClients   = 2
	dblpTopK      = 10
	dblpCountOps  = 100 // ops in the count pass's fixed list
	dblpMaxRate   = 500 // ops/s the pre-built list is sized for; it wraps beyond
)

// checkOneIn: one operation in this many keeps its answer for the
// oracle.
const checkOneIn = 4

// dblpQTs are the primary PTQ thresholds; the low ones fall below the
// cutoff and read the cutoff index.
var dblpQTs = []float64{0.05, 0.1, 0.3, 0.5}

// Op kinds.
const (
	opPTQ       = "ptq"
	opTopK      = "topk"
	opSecondary = "secondary"
	opCircle    = "circle"
	opSegment   = "segment"
	opInsert    = "insert"
	opDelete    = "delete"
)

type dblpEnv struct {
	db      *upidb.DB
	tab     *upidb.Table
	data    *dataset.DBLP
	writes  []float64 // ms of each set-up insert that built the fractures
	rounds  []float64 // ms per tuple of each fracture round: its inserts and its flush
	logical int64
}

func (e *dblpEnv) close(context.Context) error { return e.db.Close() }

// dblpConfig is the author table's generator setting. The dataset
// comes from the generator's own fixed seed; --seed draws the query
// lists. The planner's route for the qt=0.05 PTQs sits at a cost
// crossover that moves with the dataset draw (between two draws, 55%
// and 87% of those queries took the full scan), so a per-seed dataset
// would make the figures measure the draw rather than the code.
func dblpConfig(size float64) dataset.DBLPConfig {
	cfg := dataset.DefaultDBLPConfig().Scaled(dblpScale * size)
	cfg.Publications = 0
	return cfg
}

// buildDBLP generates the authors and loads them into a table of the
// given shard count: 70% bulk-loaded as the main UPI of every shard,
// the rest inserted and flushed in six rounds, so each shard holds a
// main plus six fractures.
func buildDBLP(size float64, shards int) (*dblpEnv, error) {
	data, err := dataset.GenerateDBLP(dblpConfig(size))
	if err != nil {
		return nil, err
	}
	db, err := upidb.Create("", upidb.WithShards(shards), upidb.WithCutoff(dblpCutoff))
	if err != nil {
		return nil, err
	}
	e := &dblpEnv{db: db, data: data}
	n := int(float64(len(data.Authors)) * dblpMainShare)
	e.tab, err = db.BulkLoadTable("authors", dataset.AttrInstitution, []string{dataset.AttrCountry}, data.Authors[:n])
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	rest := data.Authors[n:]
	per := (len(rest) + dblpFractures - 1) / dblpFractures
	for lo := 0; lo < len(rest); lo += per {
		round := rest[lo:min(lo+per, len(rest))]
		roundStart := time.Now()
		for _, t := range round {
			start := time.Now()
			if err := e.tab.Insert(t); err != nil {
				_ = db.Close()
				return nil, err
			}
			e.writes = append(e.writes, float64(time.Since(start))/float64(time.Millisecond))
		}
		if err := e.tab.Flush(); err != nil {
			_ = db.Close()
			return nil, err
		}
		e.rounds = append(e.rounds, float64(time.Since(roundStart))/float64(time.Millisecond)/float64(len(round)))
	}
	for _, t := range data.Authors {
		e.logical += tupleBytes(t)
	}
	return e, nil
}

// dblpOp is one query of the mix.
type dblpOp struct {
	kind   string
	value  string
	qt     float64
	stream bool // drain with All, else Collect
	check  bool // keep the answer for the oracle
}

func (op dblpOp) query() upidb.Query {
	switch op.kind {
	case opTopK:
		return upidb.TopKQuery(op.value, dblpTopK)
	case opSecondary:
		return upidb.PTQ(dataset.AttrCountry, op.value, op.qt)
	}
	return upidb.PTQ("", op.value, op.qt)
}

// want is the oracle's answer to op.
func (op dblpOp) want(o *tupleOracle) []scored {
	switch op.kind {
	case opTopK:
		return o.topk(dataset.AttrInstitution, op.value, dblpTopK)
	case opSecondary:
		return o.ptq(dataset.AttrCountry, op.value, op.qt)
	}
	return o.ptq(dataset.AttrInstitution, op.value, op.qt)
}

func (op dblpOp) String() string {
	return fmt.Sprintf("%s %s qt=%g stream=%v", op.kind, op.value, op.qt, op.stream)
}

// dblpMix builds the query list: Zipf-popular institutions (the
// generator's own popularity law) and countries. Each block of 116
// queries holds 64 primary PTQs (16 at each threshold), 48 top-10
// queries and 4 tailored secondary PTQs on Country; half the PTQs
// drain with All, half with Collect. Values are drawn through strata,
// so every block carries the same share of heavy queries. The top-k
// share puts the median time to first result inside the top-10
// queries' own fast first results. With 16 top-10 queries in a block
// it sat on the edge between the index scans and the full scans, and
// with 32 (half of the streamed queries) on the edge between the
// top-10 queries and the index-scan PTQs; either way it jumped by up
// to half from run to run.
type dblpMix struct {
	insts, countries []string
	instZ, countryZ  zipf
}

func newDBLPMix(d *dataset.DBLP) dblpMix {
	cfg := dataset.DefaultDBLPConfig()
	return dblpMix{
		insts: d.Institutions, countries: d.Countries,
		instZ: newZipf(len(d.Institutions), cfg.ZipfS), countryZ: newZipf(len(d.Countries), 1),
	}
}

func (m dblpMix) block(st *stratifier) []dblpOp {
	rng := st.rng
	var ops []dblpOp
	add := func(kind string, n int, z zipf, vals []string, qts []float64, stream bool) {
		for j, u := range st.draw(fmt.Sprint(kind, qts), n) {
			op := dblpOp{kind: kind, value: vals[z.at(u)], stream: stream || j%2 == 0}
			if len(qts) > 0 {
				op.qt = qts[(j/2)%len(qts)]
			}
			ops = append(ops, op)
		}
	}
	add(opSecondary, 4, m.countryZ, m.countries, []float64{0.3, 0.5}, false)
	add(opTopK, 48, m.instZ, m.insts, nil, true)
	for _, qt := range dblpQTs {
		add(opPTQ, 16, m.instZ, m.insts, []float64{qt}, false)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].check = rng.Intn(checkOneIn) == 0
	}
	return ops
}

// list returns at least n queries, block by block.
func (m dblpMix) list(rng *rand.Rand, n int) []dblpOp {
	st := newStratifier(rng)
	var ops []dblpOp
	for len(ops) < n {
		ops = append(ops, m.block(st)...)
	}
	return ops
}

// readOut is what one executed query returned.
type readOut struct {
	rows    []scored // kept only when asked for
	n       int
	info    upidb.QueryInfo
	total   time.Duration // Run start to the end of the drain
	ttfr    time.Duration // Run start to the first streamed result
	hasTTFR bool
}

// execQuery runs q on tab and drains it with All or Collect, recording
// spans on ot (nil when untraced).
func execQuery(ctx context.Context, tab *upidb.Table, q upidb.Query, stream, keep bool, ot *opTrace) (readOut, error) {
	start := time.Now()
	id := ot.start(spanRun)
	res, err := tab.Run(ctx, q.WithTrace(ot.engine()))
	ot.end(id)
	if err != nil {
		return readOut{}, err
	}
	return drain(res, start, stream, keep, func(r upidb.Result) scored { return scored{r.Tuple.ID, r.Confidence} }, ot)
}

// results is the handle Table.Run and SpatialTable.Run return.
type results[T any] interface {
	All() iter.Seq2[T, error]
	Collect() []T
	Err() error
	Info() upidb.QueryInfo
}

// drain consumes res with All (stream) or Collect, timing from start
// and recording spans on ot; with keep it converts every result to an
// answer row.
func drain[T any](res results[T], start time.Time, stream, keep bool, row func(T) scored, ot *opTrace) (readOut, error) {
	var out readOut
	if stream {
		id := ot.start(spanFirstPull)
		for r, err := range res.All() {
			if err != nil {
				ot.end(id)
				return out, err
			}
			if out.n == 0 {
				out.ttfr, out.hasTTFR = time.Since(start), true
				ot.end(id)
				id = ot.start(spanDrainRest)
			}
			out.n++
			if keep {
				out.rows = append(out.rows, row(r))
			}
		}
		ot.end(id)
	} else {
		id := ot.start(spanCollect)
		rs := res.Collect()
		ot.end(id)
		if err := res.Err(); err != nil {
			return out, err
		}
		out.n = len(rs)
		if keep {
			for _, r := range rs {
				out.rows = append(out.rows, row(r))
			}
		}
	}
	out.total = time.Since(start)
	out.info = res.Info()
	return out, nil
}

// checked is a sampled answer kept for verification after the phase.
type checked struct {
	op   dblpOp
	rows []scored
}

// readSamples collects one client's timings.
type readSamples struct {
	reads, ttfr []sample
	done        []time.Duration // completion time of every operation
	ops         int64
	topk        int64 // top-k queries
	partitions  int64 // Info().Partitions, summed
	errs        []string
	checks      []checked
}

// dblpPhase runs the closed loop over ops for d and returns the
// per-client samples merged, and the elapsed time. The clients take
// the next query from the shared list.
func dblpPhase(ctx context.Context, e *dblpEnv, ops []dblpOp, d time.Duration, tr *tracer) (readSamples, time.Duration, error) {
	// Both phases of a traced run start from the same cold caches.
	if err := e.tab.DropCaches(); err != nil {
		return readSamples{}, 0, err
	}
	per := make([]readSamples, dblpClients)
	var next atomic.Int64
	start := time.Now()
	elapsed := closedLoop(dblpClients, d, func(c int) bool {
		s := &per[c]
		op := ops[int(next.Add(1)-1)%len(ops)]
		ot := tr.begin()
		root := ot.start(spanOp + ":" + op.kind)
		out, err := execQuery(ctx, e.tab, op.query(), op.stream, op.check, ot)
		ot.end(root)
		ot.finish()
		at := time.Since(start)
		s.ops++
		s.done = append(s.done, at)
		if err != nil {
			s.errs = append(s.errs, fmt.Sprintf("%v: %v", op, err))
			return true
		}
		s.reads = append(s.reads, sample{at, out.total})
		if out.hasTTFR {
			s.ttfr = append(s.ttfr, sample{at, out.ttfr})
		}
		s.partitions += int64(out.info.Partitions)
		if op.kind == opTopK {
			s.topk++
		}
		if op.check {
			s.checks = append(s.checks, checked{op, out.rows})
		}
		return true
	})
	var all readSamples
	for _, s := range per {
		all.reads = append(all.reads, s.reads...)
		all.ttfr = append(all.ttfr, s.ttfr...)
		all.done = append(all.done, s.done...)
		all.ops += s.ops
		all.topk += s.topk
		all.partitions += s.partitions
		all.errs = append(all.errs, s.errs...)
		all.checks = append(all.checks, s.checks...)
	}
	return all, elapsed, nil
}

// dblpCount is one count pass: the fixed op list drained with All,
// single-client, from cold caches, on a one-shard build of the same
// authors and fracture layout. A four-shard table primes its shards
// concurrently, and the order in which they charge their disk tapes —
// with it the seek count — changes from run to run (681 to 683 seeks
// over one list), so only an unsharded table gives counts that repeat
// exactly.
type dblpCount struct {
	c                counts
	queries, results int
	estCost, charged float64
	disk             upidb.DiskStats
}

func dblpCountPass(ctx context.Context, e *dblpEnv, ops []dblpOp) (dblpCount, error) {
	var r dblpCount
	if err := e.tab.DropCaches(); err != nil {
		return r, err
	}
	m0, d0 := e.db.Metrics(), e.db.DiskStats()
	for _, op := range ops {
		out, err := execQuery(ctx, e.tab, op.query(), true, false, nil)
		if err != nil {
			return r, fmt.Errorf("count pass: %v: %w", op, err)
		}
		r.queries++
		r.results += out.n
		r.c.HeapEntries += int64(out.info.HeapEntries)
		r.c.CutoffPointers += int64(out.info.CutoffPointers)
	}
	md := metricsDelta{m0, e.db.Metrics()}
	r.disk = diskDelta(d0, e.db.DiskStats())
	r.c.ModeledMS = float64(r.disk.Elapsed) / float64(time.Millisecond)
	r.c.Seeks = r.disk.Seeks
	_, r.estCost, _, _ = md.hist("upidb_planner_modeled_cost_seconds", nil)
	_, r.charged, _, _ = md.hist("upidb_query_modeled_seconds", plannedKind)
	return r, nil
}

// streamOverCollect times the op list on the measured table from cold
// caches, once drained with Collect and once with All, and returns the
// ratio of the two times.
func streamOverCollect(ctx context.Context, e *dblpEnv, ops []dblpOp) (float64, error) {
	var took [2]time.Duration
	for i, stream := range []bool{false, true} {
		if err := e.tab.DropCaches(); err != nil {
			return 0, err
		}
		start := time.Now()
		for _, op := range ops {
			if _, err := execQuery(ctx, e.tab, op.query(), stream, false, nil); err != nil {
				return 0, fmt.Errorf("stream/collect pass: %v: %w", op, err)
			}
		}
		took[i] = time.Since(start)
	}
	return float64(took[1]) / float64(took[0]), nil
}

// plannedKind keeps the modeled-cost series of planner-routed queries
// (labelled by plan kind); heuristic ones are labelled by query kind.
func plannedKind(key string) bool {
	return !strings.Contains(key, `kind="PTQ"`) && !strings.Contains(key, `kind="TopK"`)
}

func runDBLP(ctx context.Context, cfg runCfg) (*report, error) {
	rep := &report{figs: newFigures()}
	f := rep.figs
	var passes []dblpCount
	var countOps []dblpOp
	if cfg.trace {
		for range 2 {
			e, err := buildDBLP(cfg.size, 1)
			if err != nil {
				return nil, err
			}
			countOps = newDBLPMix(e.data).list(rand.New(rand.NewSource(countSeed(cfg.seed))), dblpCountOps)
			p, err := dblpCountPass(ctx, e, countOps)
			if cerr := e.close(ctx); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
	}
	var writes, rounds []float64
	e, setupS, err := buildInstances(ctx, func() (*dblpEnv, error) {
		e, err := buildDBLP(cfg.size, dblpShards)
		if err == nil {
			writes = append(writes, e.writes...)
			rounds = append(rounds, e.rounds...)
		}
		return e, err
	}, func(int, *dblpEnv) error { return nil })
	if err != nil {
		return nil, err
	}
	defer e.close(ctx)
	oracle := newTupleOracle(e.data.Authors)
	verify := func(s readSamples) {
		rep.attempted += s.ops
		for _, msg := range s.errs {
			rep.fail("%s", msg)
		}
		for _, c := range s.checks {
			if err := sameAnswer(c.rows, c.op.want(oracle)); err != nil {
				rep.fail("%v: %v", c.op, err)
			}
		}
	}

	ops := newDBLPMix(e.data).list(rand.New(rand.NewSource(cfg.seed)), int(dblpMaxRate*cfg.seconds.Seconds()))
	d0 := e.db.DiskStats()
	rt0 := readRuntime()
	s, elapsed, err := dblpPhase(ctx, e, ops, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	modeled := diskDelta(d0, e.db.DiskStats()).Elapsed
	verify(s)

	if !cfg.trace {
		f.set("setup_s", setupS)
		f.set("throughput_ops_s", roundRate(s.done, cfg.seconds))
		f.roundMedian("read_p50_ms", s.reads, cfg.seconds)
		f.pct("read_p99_ms", msOf(s.reads), 0.99)
		f.roundMedian("ttfr_p50_ms", s.ttfr, cfg.seconds)
		f.pct("write_p50_ms", rounds, 0.5)
		f.set("modeled_ms_per_op", ratio(float64(modeled)/float64(time.Millisecond), float64(s.ops)))
		f.set("mem_mb", memMB())
		f.set("space_amp", ratio(float64(e.db.TotalSizeBytes()), float64(e.logical)))
		return rep, nil
	}

	// Traced run: the phase above is the untraced reference; run it
	// again traced, then read the per-layer figures.
	rep.spans = newTracer()
	m0 := e.db.Metrics()
	ts, tElapsed, err := dblpPhase(ctx, e, ops, cfg.seconds, rep.spans)
	if err != nil {
		return nil, err
	}
	md := metricsDelta{m0, e.db.Metrics()}
	verify(ts)
	soc, err := streamOverCollect(ctx, e, countOps)
	if err != nil {
		return nil, err
	}

	if err := sameCounts(passes[0].c, passes[1].c); err != nil {
		rep.fail("count pass: %v", err)
	}
	p := passes[0]
	sp := readSpans(rep.spans.all())
	f.setRuntime(rt0, rt1, s.ops)
	f.pct("write_p99_ms", writes, 0.99)
	f.set("trace.overhead_frac", 1-(float64(ts.ops)/tElapsed.Seconds())/(float64(s.ops)/elapsed.Seconds()))
	f.pctOrZero("upidb.run_us_p50", durUS(sp.runSelf), 0.5)
	f.pctOrZero("upidb.drain_us_p50", durUS(sp.drain), 0.5)
	f.pctOrZero("fracture.scan_us_p50", durUS(sp.scans), 0.5)
	f.pctOrZero("fracture.slowest_scan_share", sp.slowest, 0.5)
	f.pctOrZero("upi.secondary_us_p50", durUS(sp.secondary), 0.5)
	hits, misses := md.counter("upidb_plan_cache_hits_total", ""), md.counter("upidb_plan_cache_misses_total", "")
	f.set("planner.cache_hit_ratio", ratio(hits, hits+misses))
	routes := md.counter("upidb_planner_route_total", "")
	f.set("planner.stats_route_frac", ratio(routes-md.counter("upidb_planner_route_total", `source="heuristic"`), routes))
	f.set("planner.est_over_charged", ratio(p.estCost, p.charged))
	f.set("shard.scatters_per_query", ratio(md.counter("upidb_shard_scatters_total", ""), float64(ts.ops)))
	f.set("shard.topk_early_term_frac", ratio(md.counter("upidb_shard_topk_early_terminations_total", ""), float64(ts.topk)))
	f.set("fracture.partitions_per_query", ratio(float64(ts.partitions), float64(ts.ops)))
	f.set("fracture.stream_over_collect", soc)
	f.set("upi.heap_entries_per_result", ratio(float64(p.c.HeapEntries), float64(p.results)))
	f.set("upi.cutoff_pointers_per_query", ratio(float64(p.c.CutoffPointers), float64(p.queries)))
	f.setSim(p.disk, p.queries, 0)
	f.setCounts(p.c)
	f.zeroLayers()
	return rep, nil
}

// sameCounts reports the first field in which two count passes differ.
func sameCounts(a, b counts) error {
	if a != b {
		return fmt.Errorf("two passes over the same op list differ: %+v vs %+v", a, b)
	}
	return nil
}
