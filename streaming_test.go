package upidb

// Tests for true incremental streaming through the facade: rows of
// both consumptions against a brute-force oracle at every parallelism,
// statistics and modeled cost against a serial per-partition
// reference, top-k early termination savings, partial-drain semantics,
// and mid-stream cancellation.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"upidb/internal/fracture"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

// hotTuple is a tuple whose X is "hot" with probability conf, or — when
// cold is set — "cold" at 0.8 with "hot" at 0.1, below the cutoff.
func hotTuple(t testing.TB, id uint64, conf float64, cold bool) *Tuple {
	alts := []Alternative{{Value: "hot", Prob: conf}}
	if cold {
		alts = []Alternative{{Value: "cold", Prob: 0.8}, {Value: "hot", Prob: 0.1}}
	}
	x, err := NewDiscrete(alts)
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}}
}

// hotBase is hotTable's main partition: 60 high-confidence "hot"
// tuples.
func hotBase(t testing.TB) []*Tuple {
	var base []*Tuple
	for i := 0; i < 60; i++ {
		base = append(base, hotTuple(t, uint64(i+1), 0.5+float64(i)*0.008, false))
	}
	return base
}

// hotWrites flushes 6 fractures, each of 4 mid-confidence "hot" tuples
// plus 20 tuples whose "hot" alternative sits below the cutoff (so it
// lives in the fracture's cutoff index).
func hotWrites(t testing.TB, w tableWriter) {
	id := uint64(61)
	for f := 0; f < 6; f++ {
		for j := 0; j < 24; j++ {
			if err := w.Insert(hotTuple(t, id, 0.2+float64(f*4+j)*0.01, j >= 4)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// hotTable builds a table engineered for top-k early termination from
// hotBase and hotWrites. A per-partition top-k must chase every
// fracture's cutoff pointers; the merged stream fills k from the main
// partition and never pulls any fracture past its first head.
func hotTable(t *testing.T, db *DB) *Table {
	t.Helper()
	tab, err := db.BulkLoadTable("hottab", "X", nil, hotBase(t), WithCutoff(0.15), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	hotWrites(t, tab)
	return tab
}

// reference replays a table's base and write history on the refTable
// oracle and on a plain one-shard fracture.Store with the tables'
// cutoff, on its own simulated disk — the independent references the
// streaming tests check rows and modeled cost against.
func reference(t *testing.T, secAttrs []string, base []*Tuple, writes func(testing.TB, tableWriter)) (*refTable, *fracture.Store, *sim.Disk) {
	t.Helper()
	ref := &refTable{live: make(map[uint64]*Tuple)}
	for _, tup := range base {
		ref.live[tup.ID] = tup
	}
	writes(t, ref)
	disk := sim.NewDisk(sim.DefaultParams())
	s, err := fracture.BulkLoad(storage.NewFS(disk), "ref", "X", secAttrs, fracture.Config{UPI: upi.Options{Cutoff: 0.15}}, base)
	if err != nil {
		t.Fatal(err)
	}
	writes(t, s)
	return ref, s, disk
}

// partitionCost is the serial per-partition reference for modeled
// cost: on a cold cache, each partition's own upi.Table query runs to
// completion, one partition after another, after its table-open
// charge — the scan-then-merge execution, partition by partition. It
// also sums the partitions' scan statistics.
func partitionCost(t *testing.T, s *fracture.Store, disk *sim.Disk, query func(*upi.Table) (upi.QueryStats, error)) (time.Duration, upi.QueryStats) {
	t.Helper()
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	var sum upi.QueryStats
	for _, part := range s.Partitions() {
		disk.Open(part.Name())
		qs, err := query(part)
		if err != nil {
			t.Fatal(err)
		}
		sum.HeapEntries += qs.HeapEntries
		sum.CutoffPointers += qs.CutoffPointers
	}
	return disk.Stats().Sub(before).Elapsed, sum
}

// ids lists the tuple IDs of rs in order.
func ids(rs []Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Tuple.ID
	}
	return out
}

// streamAll drains a fresh handle through All only, returning the
// yielded results.
func streamAll(t *testing.T, res *Results) []Result {
	t.Helper()
	var out []Result
	for r, err := range res.All() {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// TestRunStreamsGoldenVsCollect: consuming a Run through All alone
// (true streaming) yields exactly the refTable oracle's rows in the
// oracle's order, and Collect on an identical Run returns the same —
// at serial, narrow and wide parallelism, across every query class
// including planner-routed ones.
func TestRunStreamsGoldenVsCollect(t *testing.T) {
	queries := []Query{
		PTQ("", "v01", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.1),
		PTQ("", "v02", 0.1).WithPlanner(),
		PTQ("", "v02", 0.1).WithHeuristic(),
		TopKQuery("v04", 7),
	}
	ref, _, _ := reference(t, []string{"Y"}, fracturedBase(t), fracturedWrites)
	ctx := context.Background()
	for _, par := range []int{1, 2, 0} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		for qi, q := range queries {
			want := ref.answer(q)
			if len(want) == 0 {
				t.Fatalf("q=%d: oracle is empty; parity vacuous", qi)
			}
			strRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatalf("par=%d q=%d streaming run: %v", par, qi, err)
			}
			got := ids(streamAll(t, strRes))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par=%d q=%d: streamed %v, oracle %v", par, qi, got, want)
			}
			// After a full streamed drain the handle is reusable:
			// Collect returns the same rows.
			if again := ids(strRes.Collect()); !reflect.DeepEqual(again, want) {
				t.Fatalf("par=%d q=%d: Collect after full stream drain: %v", par, qi, again)
			}
			colRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatalf("par=%d q=%d collect run: %v", par, qi, err)
			}
			if got := ids(colRes.Collect()); !reflect.DeepEqual(got, want) {
				t.Fatalf("par=%d q=%d: collected %v, oracle %v", par, qi, got, want)
			}
		}
	}
}

// TestRunStreamStatsMatchMaterialized: a fully drained streamed PTQ
// reports the statistics of the serial per-partition reference —
// heap entries, cutoff pointers, partitions and exact modeled time —
// and the oracle's buffer hits; Collect on an identical Run reports
// the same Info.
func TestRunStreamStatsMatchMaterialized(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	ctx := context.Background()
	// Heuristic routing pins the primary index scan the reference runs
	// (fresh statistics would pick a full scan here).
	q := PTQ("", "v01", 0.05).WithHeuristic().WithStats()
	_, s, disk := reference(t, []string{"Y"}, fracturedBase(t), fracturedWrites)
	wantCost, wantStats := partitionCost(t, s, disk, func(part *upi.Table) (upi.QueryStats, error) {
		_, qs, err := part.Query(ctx, q.value, q.qt)
		return qs, err
	})
	// Buffer hits: the pending tuples (IDs 1100..1109) that match.
	ref := &refTable{live: make(map[uint64]*Tuple)}
	fracturedWrites(t, ref)
	wantBuf := 0
	for _, id := range ref.query("X", q.value, q.qt) {
		if id >= 1100 {
			wantBuf++
		}
	}

	var infos []QueryInfo
	for _, consume := range []func(*Results){
		func(res *Results) { streamAll(t, res) },
		func(res *Results) { res.Collect() },
	} {
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		consume(res)
		infos = append(infos, res.Info())
	}
	got := infos[0]
	if got.HeapEntries != wantStats.HeapEntries || got.CutoffPointers != wantStats.CutoffPointers ||
		got.Partitions != len(s.Partitions()) || got.BufferHits != wantBuf {
		t.Fatalf("streamed info %+v; reference %+v over %d partitions, %d buffer hits",
			got, wantStats, len(s.Partitions()), wantBuf)
	}
	if wantCost <= 0 || got.ModeledTime != wantCost {
		t.Fatalf("streamed modeled time %v != per-partition reference %v", got.ModeledTime, wantCost)
	}
	if infos[1] != got {
		t.Fatalf("Collect info %+v diverged from the streamed %+v", infos[1], got)
	}
}

// TestRunTopKStreamEarlyTermination: over 7 partitions, the streamed
// top-k yields its first result — and completes — for strictly less
// modeled I/O than the per-partition reference, where every partition
// runs its own top-k to completion, with the oracle's results. Collect
// stops at the k-th result too, at the streamed cost.
func TestRunTopKStreamEarlyTermination(t *testing.T) {
	db := mustCreate(t)
	tab := hotTable(t, db)
	ctx := context.Background()
	q := TopKQuery("hot", 20)
	ref, s, disk := reference(t, nil, hotBase(t), hotWrites)
	want := ref.answer(q)
	fullCost, _ := partitionCost(t, s, disk, func(part *upi.Table) (upi.QueryStats, error) {
		_, qs, err := part.TopK(ctx, q.value, q.k)
		return qs, err
	})
	if len(want) != 20 || fullCost <= 0 {
		t.Fatalf("reference top-k: %d rows, cost %v", len(want), fullCost)
	}

	// First result costs less than the whole reference run: only one
	// head per partition is needed, not any completed scan.
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := db.DiskStats()
	strRes, err := tab.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for r, err := range strRes.All() {
		if err != nil {
			t.Fatal(err)
		}
		first = &r
		break // partial drain: cancels the remaining scans
	}
	firstCost := db.DiskStats().Sub(before).Elapsed
	if first == nil || first.Tuple.ID != want[0] {
		t.Fatalf("first streamed result %+v, want ID %d", first, want[0])
	}
	if firstCost >= fullCost {
		t.Fatalf("first-result modeled cost %v not below per-partition reference %v", firstCost, fullCost)
	}

	// A full streamed drain, and Collect, return the oracle's top-k for
	// strictly less modeled I/O: the fractures' cutoff chases never
	// happen.
	var costs []time.Duration
	for _, consume := range []func(*Results) []Result{
		func(res *Results) []Result { return streamAll(t, res) },
		func(res *Results) []Result { return res.Collect() },
	} {
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before = db.DiskStats()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(consume(res)); !reflect.DeepEqual(got, want) {
			t.Fatalf("top-k %v, oracle %v", got, want)
		}
		costs = append(costs, db.DiskStats().Sub(before).Elapsed)
	}
	if costs[0] >= fullCost || costs[1] != costs[0] {
		t.Fatalf("streamed top-k cost %v, Collect %v, per-partition reference %v", costs[0], costs[1], fullCost)
	}
}

// TestRunPartialDrainSpendsHandle: breaking out of All cancels the
// remaining scans and spends the handle — a second All yields
// ErrStreamConsumed instead of silently resuming, Collect/Len report
// an empty set, and Err explains why.
func TestRunPartialDrainSpendsHandle(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	var second error
	for _, err := range res.All() {
		second = err
		break
	}
	if !errors.Is(second, ErrStreamConsumed) {
		t.Fatalf("second All after partial drain: %v", second)
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after partial drain returned %d rows", len(rs))
	}
	if res.Len() != 0 {
		t.Fatalf("Len after partial drain: %d", res.Len())
	}
	if !errors.Is(res.Err(), ErrStreamConsumed) {
		t.Fatalf("Err after partial drain: %v", res.Err())
	}
	// The spent handle released its pins: the table merges cleanly and
	// a fresh query still answers.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	fresh, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil || fresh.Len() == 0 {
		t.Fatalf("table broken after partial drain + merge: %v (%d rows)", err, fresh.Len())
	}
}

// TestRunMidStreamCancel: cancelling the context after n streamed
// results terminates the iterator with ErrCanceled, stops charging
// modeled I/O, and releases every partition pin (the table merges
// cleanly afterwards).
func TestRunMidStreamCancel(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	var (
		n         int
		streamErr error
	)
	for _, err := range res.All() {
		if err != nil {
			streamErr = err
			break
		}
		if n++; n == 3 {
			cancel() // checked between pulls: next iteration must fail
		}
	}
	if !errors.Is(streamErr, ErrCanceled) || !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled after %d rows, got %v", n, streamErr)
	}
	if n != 3 {
		t.Fatalf("stream yielded %d rows after cancellation point", n)
	}
	after := db.DiskStats()
	if !errors.Is(res.Err(), ErrCanceled) {
		t.Fatalf("Err after cancelled stream: %v", res.Err())
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after cancelled stream returned %d rows", len(rs))
	}
	if d := db.DiskStats().Sub(after); d.Elapsed != 0 || d.BytesRead != 0 {
		t.Fatalf("cancelled stream kept charging: %v", d)
	}
	// Pins are back: merging reclaims the old generation without a
	// leak, and the table still answers.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	fresh, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil || fresh.Len() == 0 {
		t.Fatalf("table broken after cancelled stream + merge: %v (%d rows)", err, fresh.Len())
	}
}

// TestResultsClose: Close on an unconsumed handle releases its pins
// without executing; the handle is spent.
func TestResultsClose(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	before := db.DiskStats()
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	res.Close() // idempotent
	if d := db.DiskStats().Sub(before); d.Elapsed != 0 {
		t.Fatalf("closed-unconsumed handle charged I/O: %v", d)
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after Close returned %d rows", len(rs))
	}
	if !errors.Is(res.Err(), ErrStreamConsumed) {
		t.Fatalf("Err after Close: %v", res.Err())
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAccessorsDuringStream: calling Info/Len/Collect/Err from
// inside an in-progress All loop must not double-consume the query or
// poison the handle — they are inert mid-drain, and the stream still
// finishes cleanly with Err() == nil.
func TestRunAccessorsDuringStream(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatalf("stream failed after mid-drain accessor: %v", err)
		}
		if n++; n == 1 {
			if rs := res.Collect(); rs != nil {
				t.Fatalf("Collect mid-stream returned %d rows", len(rs))
			}
			if res.Len() != 0 {
				t.Fatalf("Len mid-stream: %d", res.Len())
			}
			if err := res.Err(); err != nil {
				t.Fatalf("Err mid-stream: %v", err)
			}
			_ = res.Info() // must not force a second execution
			// A re-entrant All must refuse rather than double-consume.
			for _, err := range res.All() {
				if !errors.Is(err, ErrStreamConsumed) {
					t.Fatalf("re-entrant All: %v", err)
				}
				break
			}
		}
	}
	if n == 0 {
		t.Fatal("stream yielded nothing")
	}
	if res.Err() != nil {
		t.Fatalf("Err after clean drain: %v", res.Err())
	}
	if got := res.Len(); got != n {
		t.Fatalf("Len after drain: %d, streamed %d", got, n)
	}
}

// TestRunStreamsManyValues is a broader golden sweep: every value of
// the fractured table streams identically to its materialized run.
func TestRunStreamsManyValues(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 2)
	ctx := context.Background()
	for v := 0; v < 7; v++ {
		for _, qt := range []float64{0.05, 0.3, 0.6} {
			q := PTQ("", fmt.Sprintf("v%02d", v), qt)
			matRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want := matRes.Collect()
			strRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got := streamAll(t, strRes)
			if len(got) != len(want) {
				t.Fatalf("v%02d qt=%v: %d streamed vs %d collected", v, qt, len(got), len(want))
			}
			for i := range got {
				if got[i].Tuple.ID != want[i].Tuple.ID {
					t.Fatalf("v%02d qt=%v row %d: %d vs %d", v, qt, i, got[i].Tuple.ID, want[i].Tuple.ID)
				}
			}
		}
	}
}
