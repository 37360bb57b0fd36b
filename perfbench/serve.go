package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"time"

	"upidb"
	"upidb/internal/dataset"
	"upidb/internal/server"
	"upidb/internal/storage"
)

// serve-ingest: durable writes beside reads, through the HTTP server
// on a loopback listener. Two clients, each on its own keep-alive
// connection, send requests back to back (a closed loop) to a durable
// one-shard table (so concurrent writers share one WAL), while buffer
// flushes and the background merger cycle many times per run. It
// stresses the WAL append and sync, flush, merge, statistics
// absorption, plan-cache invalidation, reads over a changing fracture
// set and the NDJSON wire encoding, and skips large-data misses and
// shard scatter.
//
// The loop is closed rather than open. An open loop at a fixed rate
// leaves the two vCPUs of the development host idle between requests,
// and every request then waits for the hypervisor to run a halted
// vCPU again: at 600 requests/s the write p50 was 0.24 ms against
// 0.08 ms back to back, and over ten runs the read p99 followed the
// host's steal time from 6 ms (0.2% steal) to 16 ms (12% steal), more
// than any bound could hold.
//
// The table is durable over an in-memory backend: every write is
// appended to the WAL and synced before it is acknowledged, flushes
// and merges commit through the manifest, and the reopen check replays
// them, but a sync costs no device time. On a shared virtual disk the
// fsync latency swung several-fold between minutes, and with it every
// latency of this workload (write p50 from 0.47 to 2.4 ms over ten
// runs), more than any bound could hold.
const (
	serveConns        = 2    // clients, one keep-alive connection each
	serveLive         = 4000 // tuples bulk-loaded; the live set fits the buffer pools
	servePool         = 4000 // tuple contents the upserts and new inserts draw from
	serveBuffer       = 1024 // RAM-buffer tuples before a flush
	serveMaxFractures = 3    // the merge policy: merge when this many fractures exist
	serveMergePoll    = 50 * time.Millisecond
	serveTopK         = 10
	serveCountOps     = 7000 // enough writes for three flushes and a merge
	servePayload      = 32   // payload bytes, sent as hex text
	serveQTiny        = 1e-12
)

var serveQTs = []float64{0.1, 0.3, 0.5}

// serveOp is one request.
type serveOp struct {
	kind  string
	id    uint64
	tuple *upidb.Tuple // inserts: the content sent
	body  []byte       // the request body
	path  string
	value string  // queries
	qt    float64 // queries
}

// serveMix generates one client's requests, block by block. Each block
// of 100 requests holds 60 upserts of live tuples, 10 inserts of new
// IDs, 10 deletes, 14 PTQs and 6 top-10 queries on Zipf-popular
// institutions (drawn through strata). A client writes only the IDs
// congruent to its index modulo the number of clients, so its writes
// reach the server in the order it generates them, and its requests do
// not depend on how fast the other client runs.
type serveMix struct {
	data       *dataset.DBLP
	instZ      zipf
	st         *stratifier
	live       []uint64       // live IDs as the requests are generated
	pos        map[uint64]int // ID -> index in live
	next, step uint64         // next new ID; IDs owned differ by step
	pending    []serveOp
}

// newServeMix returns the mix of client c of n.
func newServeMix(data *dataset.DBLP, rng *rand.Rand, c, n int) *serveMix {
	m := &serveMix{data: data, instZ: newZipf(len(data.Institutions), dataset.DefaultDBLPConfig().ZipfS),
		st: newStratifier(rng), pos: make(map[uint64]int), step: uint64(n)}
	for id := uint64(1); id <= serveLive; id++ {
		if id%m.step == uint64(c) {
			m.addLive(id)
		}
	}
	m.next = serveLive + 1
	for m.next%m.step != uint64(c) {
		m.next++
	}
	return m
}

func (m *serveMix) addLive(id uint64) {
	m.pos[id] = len(m.live)
	m.live = append(m.live, id)
}

func (m *serveMix) removeLive(id uint64) {
	i := m.pos[id]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, id)
}

// content returns a fresh version of tuple id: the uncertain
// attributes of one of the pool authors and a text payload.
func (m *serveMix) content(rng *rand.Rand, id uint64) *upidb.Tuple {
	src := m.data.Authors[serveLive+rng.Intn(servePool)]
	p := make([]byte, servePayload/2)
	rng.Read(p)
	return &upidb.Tuple{ID: id, Existence: src.Existence, Det: src.Det, Unc: src.Unc, Payload: []byte(hex.EncodeToString(p))}
}

func (m *serveMix) block() []serveOp {
	rng := m.st.rng
	kinds := make([]string, 0, 100)
	for _, k := range []struct {
		kind string
		n    int
	}{{opInsert, 60}, {"new", 10}, {opDelete, 10}, {opPTQ, 14}, {opTopK, 6}} {
		for range k.n {
			kinds = append(kinds, k.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	us := m.st.draw("query", 20)
	ops := make([]serveOp, len(kinds))
	for j, kind := range kinds {
		var op serveOp
		switch kind {
		case opInsert, "new", opDelete:
			if kind == opDelete && uint64(len(m.live)) < serveLive/4/m.step {
				kind = "new"
			}
			var id uint64
			if kind == "new" {
				id = m.next
				m.next += m.step
				m.addLive(id)
			} else {
				id = m.live[rng.Intn(len(m.live))]
			}
			if kind == opDelete {
				m.removeLive(id)
				op = serveOp{kind: opDelete, id: id, path: "delete", body: mustJSON(map[string]uint64{"id": id})}
				break
			}
			t := m.content(rng, id)
			op = serveOp{kind: opInsert, id: id, tuple: t, path: "insert", body: mustJSON(wireOf(t))}
		default:
			u := us[len(us)-1]
			us = us[:len(us)-1]
			v := m.data.Institutions[m.instZ.at(u)]
			op = serveOp{kind: kind, path: "query", value: v}
			req := map[string]any{"kind": "topk", "value": v, "k": serveTopK}
			if kind == opPTQ {
				op.qt = serveQTs[rng.Intn(len(serveQTs))]
				req = map[string]any{"kind": "ptq", "value": v, "qt": op.qt}
			}
			op.body = mustJSON(req)
		}
		ops[j] = op
	}
	return ops
}

// nextOp returns the client's next request.
func (m *serveMix) nextOp() serveOp {
	if len(m.pending) == 0 {
		m.pending = m.block()
	}
	op := m.pending[0]
	m.pending = m.pending[1:]
	return op
}

// list returns the next n requests.
func (m *serveMix) list(n int) []serveOp {
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = m.nextOp()
	}
	return ops
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps and structs of strings and numbers reach here
	}
	return b
}

// wire is the server's JSON form of a tuple.
type wire struct {
	ID        uint64    `json:"id"`
	Existence float64   `json:"existence"`
	Det       []wireDet `json:"det"`
	Unc       []wireUnc `json:"unc"`
	Payload   string    `json:"payload"`
}

type wireDet struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type wireUnc struct {
	Name string    `json:"name"`
	Alts []wireAlt `json:"alts"`
}

type wireAlt struct {
	Value string  `json:"value"`
	Prob  float64 `json:"prob"`
}

func wireOf(t *upidb.Tuple) wire {
	w := wire{ID: t.ID, Existence: t.Existence, Payload: string(t.Payload)}
	for _, d := range t.Det {
		w.Det = append(w.Det, wireDet(d))
	}
	for _, u := range t.Unc {
		wu := wireUnc{Name: u.Name}
		for _, a := range u.Dist {
			wu.Alts = append(wu.Alts, wireAlt{a.Value, a.Prob})
		}
		w.Unc = append(w.Unc, wu)
	}
	return w
}

// serveEnv is one running server over a fresh durable database.
type serveEnv struct {
	mem     *storage.MemBackend // holds the database's files across a reopen
	db      *upidb.DB
	tab     *upidb.Table
	srv     *server.Server
	http    *http.Server
	addr    string
	done    chan error // the Serve goroutine's result
	data    *dataset.DBLP
	clients [serveConns]*serveClient
	count   []serveOp
	down    bool
}

// serveClient is one client's request stream and what the server has
// acknowledged of its writes.
type serveClient struct {
	mix     *serveMix
	state   map[uint64]*upidb.Tuple // acknowledged content per written ID; nil = deleted
	unknown map[uint64]bool         // IDs a write to which failed
}

func serveOptions(mem *storage.MemBackend) []upidb.Option {
	return []upidb.Option{upidb.WithBackend(mem), upidb.WithDurability(true),
		upidb.WithShards(1), upidb.WithCutoff(dblpCutoff), upidb.WithBufferTuples(serveBuffer)}
}

// buildServe generates the tuples, the clients' request streams and
// the count pass's list, loads the live set into a durable table,
// starts the background merger and the HTTP server.
func buildServe(seed int64, nCount int) (*serveEnv, error) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications = serveLive+servePool, 0
	data, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{data: data}
	for c := range e.clients {
		rng := rand.New(rand.NewSource(seed*serveConns + int64(c)))
		e.clients[c] = &serveClient{mix: newServeMix(data, rng, c, serveConns),
			state: make(map[uint64]*upidb.Tuple), unknown: make(map[uint64]bool)}
	}
	e.count = newServeMix(data, rand.New(rand.NewSource(countSeed(seed))), 0, 1).list(nCount)
	e.mem = storage.NewMemBackend()
	if e.db, err = upidb.Create("", serveOptions(e.mem)...); err != nil {
		return nil, err
	}
	fail := func(err error) (*serveEnv, error) {
		_ = e.db.Close()
		return nil, err
	}
	if e.tab, err = e.db.BulkLoadTable("authors", dataset.AttrInstitution, []string{dataset.AttrCountry}, data.Authors[:serveLive]); err != nil {
		return fail(err)
	}
	if err := e.tab.StartAutoMerge(upidb.AutoMergeOptions{MaxFractures: serveMaxFractures, Interval: serveMergePoll}); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.addr = ln.Addr().String()
	e.srv = server.New(e.db, server.Config{})
	e.http = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.done = make(chan error, 1)
	go func() { e.done <- e.http.Serve(ln) }()
	return e, nil
}

// shutdown drains the server and stops the merger; the DB stays open.
func (e *serveEnv) shutdown(ctx context.Context) error {
	if e.down {
		return nil
	}
	e.down = true
	e.srv.BeginDrain()
	err := e.http.Shutdown(ctx)
	e.srv.Drain()
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := e.tab.StopAutoMerge(); err == nil {
		err = merr
	}
	return err
}

func (e *serveEnv) close(ctx context.Context) error {
	err := e.shutdown(ctx)
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// client sends the requests of one run over at most serveConns
// keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: "http://" + addr + "/v1/tables/authors/"}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one request returned.
type reply struct {
	ok        bool
	firstLine time.Time // queries: when the first result line arrived
	done      time.Time // when the last byte arrived
	results   int
	err       string
}

// trailer is the closing NDJSON line of a query stream.
type trailer struct {
	Done  bool `json:"done"`
	Count int  `json:"count"`
}

func (c *client) do(ctx context.Context, op serveOp) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+op.path, bytes.NewReader(op.body))
	if err != nil {
		return reply{err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{err: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return reply{err: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))}
	}
	if op.path != "query" {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return reply{err: err.Error()}
		}
		return reply{ok: true, done: time.Now()}
	}
	var r reply
	sc := bufio.NewScanner(resp.Body)
	var last []byte
	for sc.Scan() {
		line := sc.Bytes()
		if r.firstLine.IsZero() && bytes.HasPrefix(line, []byte(`{"id"`)) {
			r.firstLine = time.Now()
		}
		if bytes.HasPrefix(line, []byte(`{"id"`)) {
			r.results++
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return reply{err: err.Error()}
	}
	var t trailer
	if err := json.Unmarshal(last, &t); err != nil || !t.Done || t.Count != r.results {
		return reply{err: fmt.Sprintf("bad stream end %q after %d results", last, r.results)}
	}
	r.ok, r.done = true, time.Now()
	return r
}

// servePhaseOut is one phase's timings.
type servePhaseOut struct {
	reads, writes, ttfr []sample
	done                []time.Duration // completion times, for the rate
	ops, writesAcked    int64
	errs                []string
	elapsed             time.Duration
}

// servePhase runs the clients' request streams for d. Each client
// sends its next request when the previous one is answered; latency
// runs from the send to the last byte of the answer.
func servePhase(ctx context.Context, e *serveEnv, d time.Duration, tr *tracer) (servePhaseOut, error) {
	// Both phases of a traced run start from the same cold caches.
	if err := e.tab.DropCaches(); err != nil {
		return servePhaseOut{}, err
	}
	c := newClient(e.addr)
	defer c.close()
	var per [serveConns]servePhaseOut
	start := time.Now()
	elapsed := closedLoop(serveConns, d, func(i int) bool {
		cl, out := e.clients[i], &per[i]
		op := cl.mix.nextOp()
		ot := tr.begin()
		root := ot.start(spanOp + ":" + op.kind)
		id := ot.start(spanHTTP)
		sent := time.Now()
		r := c.do(ctx, op)
		lat := time.Since(sent)
		ot.end(id)
		ot.end(root)
		ot.finish()
		at := time.Since(start)
		out.ops++
		out.done = append(out.done, at)
		switch {
		case !r.ok:
			out.errs = append(out.errs, fmt.Sprintf("%s %d: %s", op.kind, op.id, r.err))
			if op.path != "query" {
				cl.unknown[op.id] = true
			}
		case op.path == "query":
			out.reads = append(out.reads, sample{at, lat})
			if !r.firstLine.IsZero() {
				out.ttfr = append(out.ttfr, sample{at, r.firstLine.Sub(sent)})
			}
		default:
			out.writesAcked++
			out.writes = append(out.writes, sample{at, lat})
			cl.state[op.id] = op.tuple // nil for a delete
		}
		return true
	})
	out := servePhaseOut{elapsed: elapsed}
	for _, p := range per {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.ttfr = append(out.ttfr, p.ttfr...)
		out.done = append(out.done, p.done...)
		out.ops += p.ops
		out.writesAcked += p.writesAcked
		out.errs = append(out.errs, p.errs...)
	}
	return out, nil
}

// serveModel is the content every ID must have after the clients'
// acknowledged writes, and the IDs whose content is unknown because a
// write to them failed. A client's writes to an ID are applied in the
// order it sent them, and no other client writes that ID.
func (e *serveEnv) serveModel() (live map[uint64]*upidb.Tuple, unknown map[uint64]bool) {
	live = make(map[uint64]*upidb.Tuple, serveLive)
	unknown = make(map[uint64]bool)
	for _, t := range e.data.Authors[:serveLive] {
		live[t.ID] = t
	}
	for _, cl := range e.clients {
		for id, t := range cl.state {
			if t == nil {
				delete(live, id)
			} else {
				live[id] = t
			}
		}
		for id := range cl.unknown {
			unknown[id] = true
		}
	}
	return live, unknown
}

// verifyReopen opens the closed database again over the same backend,
// reads every tuple back and compares it with the model.
func verifyReopen(ctx context.Context, mem *storage.MemBackend, live map[uint64]*upidb.Tuple, unknown map[uint64]bool, countries []string, rep *report) error {
	db, err := upidb.Open("", serveOptions(mem)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	tab, err := db.OpenTable("authors", dataset.AttrInstitution, []string{dataset.AttrCountry})
	if err != nil {
		return fmt.Errorf("reopen table: %w", err)
	}
	got := make(map[uint64]*upidb.Tuple)
	for _, c := range countries {
		res, err := tab.Run(ctx, upidb.PTQ(dataset.AttrCountry, c, serveQTiny))
		if err != nil {
			return fmt.Errorf("reopen scan: %w", err)
		}
		rs := res.Collect()
		if err := res.Err(); err != nil {
			return fmt.Errorf("reopen scan: %w", err)
		}
		for _, r := range rs {
			got[r.Tuple.ID] = r.Tuple
		}
	}
	for id, want := range live {
		if unknown[id] {
			continue
		}
		g, ok := got[id]
		if !ok {
			rep.fail("after reopen: acknowledged tuple %d is missing", id)
			continue
		}
		if err := sameTuple(g, want); err != nil {
			rep.fail("after reopen: tuple %d: %v", id, err)
		}
	}
	for id := range got {
		if _, ok := live[id]; !ok && !unknown[id] {
			rep.fail("after reopen: deleted tuple %d is present", id)
		}
	}
	return nil
}

// sameTuple compares the fields a client wrote.
func sameTuple(got, want *upidb.Tuple) error {
	if got.Existence != want.Existence || !bytes.Equal(got.Payload, want.Payload) {
		return fmt.Errorf("existence/payload %v/%q, want %v/%q", got.Existence, got.Payload, want.Existence, want.Payload)
	}
	for _, u := range want.Unc {
		for _, g := range got.Unc {
			if g.Name == u.Name && len(g.Dist) != len(u.Dist) {
				return fmt.Errorf("%s has %d alternatives, want %d", u.Name, len(g.Dist), len(u.Dist))
			}
		}
		for _, a := range u.Dist {
			if p := prob(got, u.Name, a.Value); math.Abs(p-a.Prob) > confEps {
				return fmt.Errorf("%s=%s has probability %v, want %v", u.Name, a.Value, p, a.Prob)
			}
		}
	}
	return nil
}

// storedBytes is the size of every file the backend holds: the
// partitions, the WAL and the manifest.
func storedBytes(mem *storage.MemBackend) int64 {
	var n int64
	for _, name := range mem.List() {
		size, _ := mem.Size(name)
		n += size
	}
	return n
}

// samplePeriod is how often a sampler reads the live heap and the
// stored bytes.
const samplePeriod = 50 * time.Millisecond

// sampler reads, while the measured phase runs, the live heap the
// collector last measured and the bytes the backend stores. Both cycle
// with the flushes and merges, so a reading at the end of the phase
// would depend on where in the cycle the phase stopped.
type sampler struct {
	liveMB, stored []float64
	stop, done     chan struct{}
}

func startSampler(mem *storage.MemBackend) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			metrics.Read(live)
			s.liveMB = append(s.liveMB, float64(live[0].Value.Uint64())/(1<<20))
			s.stored = append(s.stored, float64(storedBytes(mem)))
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// serveCount is one count pass: the fixed request list applied
// single-client through the facade, with the merge policy applied
// explicitly after each write instead of by the background merger.
type serveCount struct {
	c                          counts
	ops, queries, results      int
	partitions, bufferHits     int64
	scatters, estCost, charged float64
	disk                       upidb.DiskStats
	written                    int64
	merges                     int
}

func serveCountPass(ctx context.Context, e *serveEnv) (serveCount, error) {
	var r serveCount
	if err := e.shutdown(ctx); err != nil {
		return r, err
	}
	if err := e.tab.DropCaches(); err != nil {
		return r, err
	}
	m0, d0 := e.db.Metrics(), e.db.DiskStats()
	for _, op := range e.count {
		r.ops++
		switch op.kind {
		case opInsert:
			if err := e.tab.Insert(op.tuple); err != nil {
				return r, fmt.Errorf("count pass: insert %d: %w", op.id, err)
			}
			r.written += tupleBytes(op.tuple)
		case opDelete:
			if err := e.tab.Delete(op.id); err != nil {
				return r, fmt.Errorf("count pass: delete %d: %w", op.id, err)
			}
		default:
			q := upidb.PTQ("", op.value, op.qt)
			if op.kind == opTopK {
				q = upidb.TopKQuery(op.value, serveTopK)
			}
			out, err := execQuery(ctx, e.tab, q.WithStats(), true, false, nil)
			if err != nil {
				return r, fmt.Errorf("count pass: %s %s: %w", op.kind, op.value, err)
			}
			r.queries++
			r.results += out.n
			r.partitions += int64(out.info.Partitions)
			r.bufferHits += int64(out.info.BufferHits)
			r.c.HeapEntries += int64(out.info.HeapEntries)
			r.c.CutoffPointers += int64(out.info.CutoffPointers)
			continue
		}
		if e.tab.NumFractures() >= serveMaxFractures {
			if err := e.tab.Merge(); err != nil {
				return r, fmt.Errorf("count pass: merge: %w", err)
			}
			r.merges++
		}
	}
	md := metricsDelta{m0, e.db.Metrics()}
	r.disk = diskDelta(d0, e.db.DiskStats())
	r.c.ModeledMS = float64(r.disk.Elapsed) / float64(time.Millisecond)
	r.c.Seeks = r.disk.Seeks
	r.scatters = md.counter("upidb_shard_scatters_total", "")
	_, r.estCost, _, _ = md.hist("upidb_planner_modeled_cost_seconds", nil)
	_, r.charged, _, _ = md.hist("upidb_query_modeled_seconds", plannedKind)
	return r, nil
}

func runServe(ctx context.Context, cfg runCfg) (*report, error) {
	rep := &report{figs: newFigures()}
	var passes []serveCount
	e, setupS, err := buildInstances(ctx, func() (*serveEnv, error) {
		return buildServe(cfg.seed, serveCountOps)
	}, func(_ int, e *serveEnv) error {
		if !cfg.trace {
			return nil
		}
		p, err := serveCountPass(ctx, e)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer e.close(ctx)
	f := rep.figs

	d0 := e.db.DiskStats()
	rt0 := readRuntime()
	smp := startSampler(e.mem)
	a, err := servePhase(ctx, e, cfg.seconds, nil)
	smp.finish()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	modeled := diskDelta(d0, e.db.DiskStats()).Elapsed
	var b servePhaseOut
	var md metricsDelta
	if cfg.trace {
		rep.spans = newTracer()
		m1 := e.db.Metrics()
		if b, err = servePhase(ctx, e, cfg.seconds, rep.spans); err != nil {
			return nil, err
		}
		md = metricsDelta{m1, e.db.Metrics()}
	}
	staleness := e.tab.StatsInfo().Staleness
	if err := e.shutdown(ctx); err != nil {
		return nil, err
	}
	for _, out := range []servePhaseOut{a, b} {
		rep.attempted += out.ops
		for _, msg := range out.errs {
			rep.fail("%s", msg)
		}
	}
	live, unknown := e.serveModel()
	if err := e.db.Close(); err != nil {
		return nil, err
	}
	if err := verifyReopen(ctx, e.mem, live, unknown, e.data.Countries, rep); err != nil {
		return nil, err
	}

	if !cfg.trace {
		var logical int64
		for _, t := range live {
			logical += tupleBytes(t)
		}
		f.set("setup_s", setupS)
		f.set("throughput_ops_s", roundRate(a.done, cfg.seconds))
		f.roundMedian("read_p50_ms", a.reads, cfg.seconds)
		f.pct("read_p99_ms", msOf(a.reads), 0.99)
		f.roundMedian("ttfr_p50_ms", a.ttfr, cfg.seconds)
		f.roundMedian("write_p50_ms", a.writes, cfg.seconds)
		f.set("modeled_ms_per_op", ratio(float64(modeled)/float64(time.Millisecond), float64(a.ops)))
		f.set("mem_mb", medianOf(smp.liveMB))
		f.set("space_amp", ratio(meanOf(smp.stored), float64(logical)))
		return rep, nil
	}

	if err := sameCounts(passes[0].c, passes[1].c); err != nil {
		rep.fail("count pass: %v", err)
	}
	p := passes[0]
	sp := readSpans(rep.spans.all())
	f.setRuntime(rt0, rt1, a.ops)
	f.pct("write_p99_ms", msOf(a.writes), 0.99)
	f.set("trace.overhead_frac", 1-(float64(b.ops)/b.elapsed.Seconds())/(float64(a.ops)/a.elapsed.Seconds()))
	hits, misses := md.counter("upidb_plan_cache_hits_total", ""), md.counter("upidb_plan_cache_misses_total", "")
	f.set("planner.cache_hit_ratio", ratio(hits, hits+misses))
	routes := md.counter("upidb_planner_route_total", "")
	f.set("planner.stats_route_frac", ratio(routes-md.counter("upidb_planner_route_total", `source="heuristic"`), routes))
	f.set("planner.est_over_charged", ratio(p.estCost, p.charged))
	f.set("stats.staleness_end", staleness)
	// The memory backend's Sync is a lock and a map lookup: the count
	// per write is exact, the time is that of a no-op sync call.
	fsyncs, _, fb, fc := md.hist("upidb_wal_fsync_seconds", nil)
	f.set("fracture.wal_fsyncs_per_write", ratio(fsyncs, float64(b.writesAcked)))
	f.set("fracture.wal_fsync_us_p50", histQuantile(0.5, fb, fc)*1e6)
	f.set("fracture.flushes", md.counter("upidb_fracture_flushes_total", ""))
	f.set("fracture.merges", md.counter("upidb_fracture_merges_total", ""))
	_, mergeS, _, _ := md.hist("upidb_fracture_merge_seconds", nil)
	f.set("fracture.merge_s_total", mergeS)
	hn, hs, _, _ := md.hist("upidb_http_request_seconds", nil)
	handlerMS := ratio(hs*1000, hn)
	f.set("server.handler_ms_mean", handlerMS)
	var sentMS float64
	for _, d := range sp.http {
		sentMS += float64(d) / float64(time.Millisecond)
	}
	f.set("server.wire_overhead_ms", ratio(sentMS, float64(len(sp.http)))-handlerMS)
	f.set("server.shed_total", md.counter("upidb_http_overload_refusals_total", ""))
	f.set("shard.scatters_per_query", ratio(p.scatters, float64(p.queries)))
	f.set("fracture.partitions_per_query", ratio(float64(p.partitions), float64(p.queries)))
	f.set("fracture.buffer_hits_per_query", ratio(float64(p.bufferHits), float64(p.queries)))
	f.set("upi.heap_entries_per_result", ratio(float64(p.c.HeapEntries), float64(p.results)))
	f.set("upi.cutoff_pointers_per_query", ratio(float64(p.c.CutoffPointers), float64(p.queries)))
	f.setSim(p.disk, p.ops, p.written)
	f.setCounts(p.c)
	f.zeroLayers()
	return rep, nil
}
