package upidb

// Tests for the unified Run API: cancellation semantics, typed
// sentinels, per-query options, streaming-vs-Collect equivalence, and
// golden equivalence of the deprecated wrappers.

//lint:file-ignore SA1019 the golden tests intentionally exercise the deprecated wrappers against Run.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// tableWriter is the write surface a test workload drives: a facade
// table, a plain fracture.Store, or the refTable oracle.
type tableWriter interface {
	Insert(*Tuple) error
	Delete(uint64) error
	Flush() error
}

// fracturedTuple is one tuple of fracturedTable: value v (mod 7) with
// probability p, value v+1 with most of the rest, and the secondary
// attribute "y" + the first value.
func fracturedTuple(t testing.TB, id uint64, v int, p float64) *Tuple {
	v1, v2 := fmt.Sprintf("v%02d", v%7), fmt.Sprintf("v%02d", (v+1)%7)
	x, err := NewDiscrete([]Alternative{{Value: v1, Prob: p}, {Value: v2, Prob: (1 - p) * 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewDiscrete([]Alternative{{Value: "y" + v1, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 0.9, Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
}

// fracturedBase is fracturedTable's bulk-loaded main.
func fracturedBase(t testing.TB) []*Tuple {
	var load []*Tuple
	for i := 0; i < 120; i++ {
		load = append(load, fracturedTuple(t, uint64(i+1), i, 0.3+float64(i%60)/100))
	}
	return load
}

// fracturedWrites is fracturedTable's write history: four flushed
// fractures with deletes, then tuples and a delete left pending in the
// RAM buffer.
func fracturedWrites(t testing.TB, w tableWriter) {
	next := uint64(1000)
	for f := 0; f < 4; f++ {
		for i := 0; i < 25; i++ {
			if err := w.Insert(fracturedTuple(t, next, int(next), 0.4+float64(int(next)%50)/100)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := w.Delete(uint64(f*10 + 1)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := w.Insert(fracturedTuple(t, next, int(next), 0.5)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if err := w.Delete(55); err != nil {
		t.Fatal(err)
	}
}

// fracturedTable builds a table with a bulk-loaded main, several
// fractures, pending deletes and a RAM buffer, so queries cross every
// partition type.
func fracturedTable(t *testing.T, db *DB, par int) *Table {
	t.Helper()
	tab, err := db.BulkLoadTable(fmt.Sprintf("runtest%d", par), "X", []string{"Y"},
		fracturedBase(t), WithCutoff(0.15), WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	fracturedWrites(t, tab)
	return tab
}

// TestRunCanceledContext: a Run launched with an already-cancelled
// context fails with ErrCanceled immediately — no modeled I/O charged,
// no results, and well under a millisecond of wall clock.
func TestRunCanceledContext(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := db.DiskStats()
	start := time.Now()
	_, err := tab.Run(ctx, PTQ("", "v01", 0.1))
	wall := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
	if d := db.DiskStats().Sub(before); d.Elapsed != 0 || d.BytesRead != 0 || d.FileOpens != 0 {
		t.Fatalf("cancelled query charged modeled I/O: %v", d)
	}
	// The acceptance bound is 1 ms; allow headroom for a loaded CI
	// host — the path is a single atomic context check.
	if wall > 50*time.Millisecond {
		t.Fatalf("cancelled query took %v", wall)
	}
}

// TestRunDeadlineExceeded: an expired deadline behaves like a cancel
// but wraps context.DeadlineExceeded.
func TestRunDeadlineExceeded(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := tab.Run(ctx, TopKQuery("v01", 3))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

// TestRunUnknownAttr: querying an unindexed attribute fails with the
// typed sentinel at the facade, before any partition work.
func TestRunUnknownAttr(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if _, err := tab.Run(context.Background(), PTQ("Nope", "x", 0.1)); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("want ErrUnknownAttr, got %v", err)
	}
}

// TestRunClosed: after Close, queries and mutations fail with
// ErrClosed; Close is idempotent.
func TestRunClosed(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Run(context.Background(), PTQ("", "v01", 0.1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	d, _ := NewDiscrete([]Alternative{{Value: "v01", Prob: 1}})
	if err := tab.Insert(&Tuple{ID: 9999, Existence: 1, Unc: []UncField{{Name: "X", Dist: d}, {Name: "Y", Dist: d}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if err := tab.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v", err)
	}
	if err := tab.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := tab.Merge(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Merge after Close: %v", err)
	}
	if err := tab.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRunStreamingMatchesCollect: at every parallelism setting, All
// yields exactly the tuples Collect returns, in identical order, and
// both match the serial baseline.
func TestRunStreamingMatchesCollect(t *testing.T) {
	queries := []Query{
		PTQ("", "v01", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.1),
		TopKQuery("v04", 7),
	}
	type key struct {
		id   uint64
		conf float64
	}
	baseline := make(map[int][]key)
	for _, par := range []int{1, 2, 4, 0} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		for qi, q := range queries {
			res, err := tab.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("par=%d q=%d: %v", par, qi, err)
			}
			collected := res.Collect()
			var streamed []key
			for r, err := range res.All() {
				if err != nil {
					t.Fatalf("par=%d q=%d stream: %v", par, qi, err)
				}
				streamed = append(streamed, key{r.Tuple.ID, r.Confidence})
			}
			if len(streamed) != len(collected) {
				t.Fatalf("par=%d q=%d: stream %d vs collect %d", par, qi, len(streamed), len(collected))
			}
			for i, k := range streamed {
				if collected[i].Tuple.ID != k.id || collected[i].Confidence != k.conf {
					t.Fatalf("par=%d q=%d row %d: stream %+v vs collect %+v", par, qi, i, k, collected[i])
				}
			}
			if par == 1 {
				baseline[qi] = streamed
			} else if !reflect.DeepEqual(baseline[qi], streamed) {
				t.Fatalf("par=%d q=%d: diverged from serial baseline", par, qi)
			}
		}
	}
}

// TestRunPerQueryParallelism: WithParallelism overrides the table
// default for one query without changing results or the table's
// setting for later queries.
func TestRunPerQueryParallelism(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 1)
	ctx := context.Background()
	base, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := tab.Run(ctx, PTQ("", "v01", 0.05).WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Collect(), wide.Collect()) {
		t.Fatal("per-query parallelism changed results")
	}
	again, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Collect(), again.Collect()) {
		t.Fatal("table default parallelism was clobbered by a per-query override")
	}
}

// TestRunModeledCostParallelismInvariant: WithStats reports the same
// modeled time at every fan-out width (the tape-replay guarantee
// surfaced through the new API).
func TestRunModeledCostParallelismInvariant(t *testing.T) {
	var want time.Duration
	for i, par := range []int{1, 3, 8} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05).WithStats())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Info().ModeledTime
		if got <= 0 {
			t.Fatalf("par=%d: no modeled time measured", par)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("par=%d: modeled %v != serial %v", par, got, want)
		}
	}
}
