package fracture

// Tests for the incremental k-way merged stream and Collect, its drain:
// rows checked against a brute-force oracle at every parallelism,
// modeled cost against a serial per-partition reference, per-partition
// pin release, top-k early termination, and mid-stream cancellation.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// drainStream pulls a stream to exhaustion.
func drainStream(t *testing.T, st *Stream) []upi.Result {
	t.Helper()
	var out []upi.Result
	for {
		r, ok, err := st.Next()
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func resultKeys(rs []upi.Result) [][2]float64 {
	out := make([][2]float64, len(rs))
	for i, r := range rs {
		out[i] = [2]float64{float64(r.Tuple.ID), r.Confidence}
	}
	return out
}

// concLive is the live tuple set buildConcStore(nFrac, batch) leaves
// behind, rebuilt independently of the store: the bulk-loaded base and
// every fracture batch, minus the one tuple each batch deletes.
func concLive(nFrac, batch int) map[uint64]*tuple.Tuple {
	live := make(map[uint64]*tuple.Tuple)
	n := uint64(4*batch + nFrac*batch)
	for id := uint64(1); id <= n; id++ {
		live[id] = concTuple(id, int(id))
	}
	for f := 0; f < nFrac; f++ {
		delete(live, uint64(f*batch+1))
	}
	return live
}

// oracle answers req by brute force over the live tuples, with the
// PTQ semantics every executor must honour: a tuple matches when it
// has the value among its alternatives (confidence > 0) at or above
// the threshold; results order by confidence descending, then ID; a
// top-k query keeps the first k.
func oracle(live map[uint64]*tuple.Tuple, primary string, req Req) []upi.Result {
	attr := primary
	if req.Attr != "" {
		attr = req.Attr
	}
	var out []upi.Result
	for _, tup := range live {
		conf := tup.Confidence(attr, req.Value)
		if conf > 0 && (req.Kind == KindTopK || conf >= req.QT) {
			out = append(out, upi.Result{Tuple: tup, Confidence: conf})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Tuple.ID < out[j].Tuple.ID
	})
	if req.Kind == KindTopK && len(out) > req.K {
		out = out[:req.K]
	}
	return out
}

// partitionCost is the serial per-partition reference for modeled
// cost: on a cold cache, each partition's own upi.Table query runs to
// completion, one partition after another, after its table-open charge
// — the scan-then-merge execution, partition by partition.
func partitionCost(t *testing.T, s *Store, disk *sim.Disk, query func(*upi.Table) error) time.Duration {
	t.Helper()
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	for _, part := range s.Partitions() {
		disk.Open(part.Name())
		if err := query(part); err != nil {
			t.Fatal(err)
		}
	}
	return disk.Stats().Sub(before).Elapsed
}

// TestStreamMatchesCollect: for every query kind and at serial, narrow
// and wide parallelism, the merged stream and Collect both yield
// exactly the brute-force oracle's rows over the live tuples, in the
// oracle's order.
func TestStreamMatchesCollect(t *testing.T) {
	reqs := []Req{
		{Kind: KindPTQ, Value: concValue(3), QT: 0.05},
		{Kind: KindPTQ, Value: concValue(3), QT: 0.4},
		{Kind: KindSecondary, Attr: "Y", Value: "y" + concValue(2), QT: 0.05, Tailored: true},
		{Kind: KindTopK, Value: concValue(4), K: 9},
		{Kind: KindScan, Value: concValue(5), QT: 0.1},
	}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		s, _ := buildConcStore(t, 5, 30)
		live := concLive(5, 30)
		// Leave work in the RAM buffer so the merge crosses every
		// partition type, and a pending delete so supersedence applies
		// at yield time.
		for _, tup := range []*tuple.Tuple{concTuple(90001, 3), concTuple(90002, 4)} {
			if err := s.Insert(tup); err != nil {
				t.Fatal(err)
			}
			live[tup.ID] = tup
		}
		if err := s.Delete(7); err != nil {
			t.Fatal(err)
		}
		delete(live, 7)
		for qi, req := range reqs {
			req.Parallelism = par
			want := resultKeys(oracle(live, "X", req))
			if len(want) == 0 {
				t.Fatalf("par=%d q=%d: oracle is empty; parity vacuous", par, qi)
			}
			prep, err := s.Prepare(context.Background(), req)
			if err != nil {
				t.Fatalf("par=%d q=%d prepare: %v", par, qi, err)
			}
			if got := resultKeys(drainStream(t, prep.Stream(context.Background()))); !reflect.DeepEqual(got, want) {
				t.Fatalf("par=%d q=%d: stream diverged from oracle\n got %v\nwant %v", par, qi, got, want)
			}
			collected, _, err := s.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("par=%d q=%d collect: %v", par, qi, err)
			}
			if got := resultKeys(collected); !reflect.DeepEqual(got, want) {
				t.Fatalf("par=%d q=%d: Collect diverged from oracle\n got %v\nwant %v", par, qi, got, want)
			}
		}
	}
}

// TestStreamModeledCostMatchesCollect: a fully drained PTQ stream —
// and Collect, which drains it — charges exactly the modeled I/O of
// the serial per-partition reference, at any parallelism: the
// per-partition tapes hold the same operations and replay in
// self-contained batches.
func TestStreamModeledCostMatchesCollect(t *testing.T) {
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05}
	s, disk := buildConcStore(t, 5, 30)
	want := partitionCost(t, s, disk, func(part *upi.Table) error {
		_, _, err := part.Query(context.Background(), req.Value, req.QT)
		return err
	})
	if want <= 0 {
		t.Fatal("reference charged nothing")
	}
	for _, par := range []int{1, 4} {
		req.Parallelism = par
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := disk.Stats()
		prep, err := s.Prepare(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		stream := prep.Stream(context.Background())
		drainStream(t, stream)
		if got := stream.Stats().ModeledTime; got != want {
			t.Fatalf("par=%d: stream modeled %v != per-partition reference %v", par, got, want)
		}
		if d := disk.Stats().Sub(before); d.Elapsed != stream.Stats().ModeledTime {
			t.Fatalf("par=%d: disk charged %v, stream reported %v", par, d.Elapsed, stream.Stats().ModeledTime)
		}
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if _, st, err := s.Run(context.Background(), req); err != nil || st.ModeledTime != want {
			t.Fatalf("par=%d: Collect modeled %v (err %v), reference %v", par, st.ModeledTime, err, want)
		}
	}
}

// TestStreamTopKEarlyTermination: a top-k stream over many partitions
// yields its first result — and its full k results — for strictly
// less modeled I/O than the materialized reference, which runs every
// partition's own top-k to completion (including every fracture's
// cutoff chase) before returning anything. The store is engineered so
// the main partition holds plenty of high-confidence matches while
// every fracture has fewer than k heap matches plus many below-cutoff
// alternatives: each per-partition TopK must chase its fracture's
// cutoff pointers, while the merged stream fills its k results from
// the main partition and never pulls any fracture past its first
// head. Collect, a drain of the same stream, stops at the k-th result
// and charges the streamed cost.
func TestStreamTopKEarlyTermination(t *testing.T) {
	// hot is "hot" at conf; a cold tuple is "cold" at 0.8 with "hot" at
	// 0.1 — below the cutoff, so it lives in the fracture's cutoff index.
	hot := func(id uint64, conf float64, cold bool) *tuple.Tuple {
		alts := []prob.Alternative{{Value: "hot", Prob: conf}}
		if cold {
			alts = []prob.Alternative{{Value: "cold", Prob: 0.8}, {Value: "hot", Prob: 0.1}}
		}
		x, err := prob.NewDiscrete(alts)
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}
	}
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	live := make(map[uint64]*tuple.Tuple)
	id := uint64(1)
	var base []*tuple.Tuple
	for i := 0; i < 60; i++ {
		base = append(base, hot(id, 0.5+float64(i)*0.008, false))
		live[id] = base[i]
		id++
	}
	s, err := BulkLoad(fs, "topk", "X", nil, Config{UPI: upi.Options{Cutoff: 0.15}}, base)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(tup *tuple.Tuple) {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
		live[tup.ID] = tup
		id++
	}
	for f := 0; f < 6; f++ {
		for j := 0; j < 24; j++ {
			insert(hot(id, 0.2+float64(f*4+j)*0.01, j >= 4))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	req := Req{Kind: KindTopK, Value: "hot", K: 20, Parallelism: 1}
	want := oracle(live, "X", req)
	fullCost := partitionCost(t, s, disk, func(part *upi.Table) error {
		_, _, err := part.TopK(context.Background(), req.Value, req.K)
		return err
	})
	if len(want) != req.K || fullCost <= 0 {
		t.Fatalf("reference top-k: %d rows, cost %v", len(want), fullCost)
	}

	// First result: the stream needs one head per partition, not any
	// partition's completed scan.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	first, ok, err := stream.Next()
	if err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if first.Tuple.ID != want[0].Tuple.ID || first.Confidence != want[0].Confidence {
		t.Fatalf("first streamed result %d/%v, want %d/%v",
			first.Tuple.ID, first.Confidence, want[0].Tuple.ID, want[0].Confidence)
	}
	stream.Close()
	firstCost := disk.Stats().Sub(before).Elapsed
	if firstCost >= fullCost {
		t.Fatalf("first-result cost %v not below per-partition reference %v", firstCost, fullCost)
	}

	// Full streamed top-k: same k results, strictly less modeled I/O.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before = disk.Stats()
	prep, err = s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream = prep.Stream(context.Background())
	got := drainStream(t, stream)
	streamCost := disk.Stats().Sub(before).Elapsed
	if !reflect.DeepEqual(resultKeys(got), resultKeys(want)) {
		t.Fatalf("streamed top-k diverged from oracle")
	}
	if streamCost >= fullCost {
		t.Fatalf("streamed top-k cost %v not below per-partition reference %v", streamCost, fullCost)
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	collected, st, err := s.Run(context.Background(), req)
	if err != nil || !reflect.DeepEqual(resultKeys(collected), resultKeys(want)) || st.ModeledTime != streamCost {
		t.Fatalf("Collect: %d rows, modeled %v (err %v); want %d rows at the streamed %v",
			len(collected), st.ModeledTime, err, len(want), streamCost)
	}
}

// TestStreamReleasesPinsIncrementally: once the stream is exhausted —
// and on Close after a partial drain — every partition pin is back,
// so a merge can reclaim the old generation immediately. Cancelling
// mid-stream behaves the same and stops charging.
func TestStreamReleasesPinsIncrementally(t *testing.T) {
	s, disk := buildConcStore(t, 5, 30)
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05, Parallelism: 1}

	// Partial drain + Close.
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	if _, ok, err := stream.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	stream.Close()
	after := disk.Stats()
	if _, ok, err := stream.Next(); ok || err != nil {
		t.Fatalf("closed stream yielded: ok=%v err=%v", ok, err)
	}
	if d := disk.Stats().Sub(after); d.Elapsed != 0 {
		t.Fatalf("closed stream kept charging: %v", d)
	}

	// Cancellation mid-stream: terminates with ErrCanceled, stops
	// charging, releases pins.
	ctx := newCountdownCtx(20)
	prep, err = s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream = prep.Stream(ctx)
	var streamErr error
	for {
		_, ok, err := stream.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(streamErr, upi.ErrCanceled) {
		t.Fatalf("cancelled stream: want ErrCanceled, got %v", streamErr)
	}
	after = disk.Stats()
	if _, ok, err := stream.Next(); ok || !errors.Is(err, upi.ErrCanceled) {
		t.Fatalf("cancelled stream resumed: ok=%v err=%v", ok, err)
	}
	if d := disk.Stats().Sub(after); d.Elapsed != 0 {
		t.Fatalf("cancelled stream kept charging: %v", d)
	}

	// All pins must be back: after a merge no old-generation file may
	// survive.
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked stream pin kept %s alive after merge", name)
		}
	}
	rs, _, err := s.Run(context.Background(), Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05})
	if err != nil || len(rs) == 0 {
		t.Fatalf("store broken after streamed queries + merge: %v (%d rows)", err, len(rs))
	}
}

// TestStreamSurvivesConcurrentMerge: a stream opened before a merge
// finishes on the generation it pinned, even though the merge swapped
// and doomed those partitions midway.
func TestStreamSurvivesConcurrentMerge(t *testing.T) {
	s, _ := buildConcStore(t, 5, 30)
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05, Parallelism: 1}
	want, _, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	// Pull one result, then merge underneath the open stream.
	if _, ok, err := stream.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	rest := drainStream(t, stream)
	if len(rest)+1 != len(want) {
		t.Fatalf("stream across merge: got %d rows, want %d", len(rest)+1, len(want))
	}
	for i, r := range rest {
		w := want[i+1]
		if r.Tuple.ID != w.Tuple.ID || r.Confidence != w.Confidence {
			t.Fatalf("row %d across merge: got %d/%v want %d/%v",
				i+1, r.Tuple.ID, r.Confidence, w.Tuple.ID, w.Confidence)
		}
	}
}

// TestPreparedSingleConsumption: a Prepared may be consumed once;
// Release is safe before, after and instead of consumption.
func TestPreparedSingleConsumption(t *testing.T) {
	s, _ := buildConcStore(t, 2, 10)
	req := Req{Kind: KindPTQ, Value: concValue(1), QT: 0.1}
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Collect(context.Background()); !errors.Is(err, errConsumed) {
		t.Fatalf("second Collect: %v", err)
	}
	if _, ok, err := prep.Stream(context.Background()).Next(); ok || !errors.Is(err, errConsumed) {
		t.Fatalf("stream after Collect: ok=%v err=%v", ok, err)
	}
	prep.Release() // idempotent after consumption

	// Release without consumption leaves no pins behind — and spends
	// the handle, so a later Collect cannot scan unpinned partitions.
	prep, err = s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	prep.Release()
	if _, _, err := prep.Collect(context.Background()); !errors.Is(err, errConsumed) {
		t.Fatalf("Collect after Release: %v", err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("released Prepared leaked pin on %s", name)
		}
	}
}
