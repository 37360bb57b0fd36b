package bench

import (
	"context"
	"fmt"
	"time"

	"upidb/internal/fracture"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// streamingTopK is the k of the streaming experiment's top-k query.
const streamingTopK = 10

// streamingFractures is the partition fan-out of the streaming
// experiment (plus the bulk-loaded main).
const streamingFractures = 8

// streamingCutoff is the cutoff threshold C of the experiment's table.
const streamingCutoff = 0.15

// buildStreamingStore builds the skew the streaming experiment
// measures: a main partition full of high-confidence matches for one
// hot value, and fractures whose matches are mostly *below* the cutoff
// — so a materialized top-k must chase every fracture's cutoff
// pointers (one modeled seek each) while the merged stream terminates
// inside the main partition's heap prefix.
func buildStreamingStore(e *Env) (*fracture.Store, *sim.Disk, error) {
	scale := e.cfg.Scale
	nMain := int(8000 * scale)
	if nMain < 400 {
		nMain = 400
	}
	nCut := int(2000 * scale)
	if nCut < 400 {
		nCut = 400
	}

	hot := func(id uint64, conf float64) (*tuple.Tuple, error) {
		x, err := prob.NewDiscrete([]prob.Alternative{{Value: "hot", Prob: conf}})
		if err != nil {
			return nil, err
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}, nil
	}
	coldPayload := make([]byte, 256)
	coldHot := func(id uint64, j int) (*tuple.Tuple, error) {
		// "hot" at confidence 0.1 — below the cutoff, so the entry
		// lives in the fracture's cutoff index and costs a pointer
		// chase to retrieve. Distinct primary values and a realistic
		// row width spread the chase targets across heap pages.
		x, err := prob.NewDiscrete([]prob.Alternative{
			{Value: fmt.Sprintf("c%04d", j), Prob: 0.8}, {Value: "hot", Prob: 0.1},
		})
		if err != nil {
			return nil, err
		}
		return &tuple.Tuple{ID: id, Existence: 1,
			Unc:     []tuple.UncField{{Name: "X", Dist: x}},
			Payload: coldPayload,
		}, nil
	}

	disk, fs := newDisk()
	id := uint64(1)
	base := make([]*tuple.Tuple, 0, nMain)
	for i := 0; i < nMain; i++ {
		t, err := hot(id, 0.5+0.499*float64(i)/float64(nMain))
		if err != nil {
			return nil, nil, err
		}
		base = append(base, t)
		id++
	}
	store, err := fracture.BulkLoad(fs, "stream", "X", nil,
		fracture.Config{UPI: upi.Options{Cutoff: streamingCutoff}, Parallelism: e.cfg.Parallelism}, base)
	if err != nil {
		return nil, nil, err
	}
	// Each fracture holds fewer than k heap matches, so a per-partition
	// top-k cannot stop at its heap prefix: the materialized path must
	// chase the fracture's whole cutoff list.
	hotPerFracture := streamingTopK / 2
	for f := 0; f < streamingFractures; f++ {
		for j := 0; j < hotPerFracture; j++ {
			t, err := hot(id, 0.2+0.01*float64(f*hotPerFracture+j)/float64(streamingFractures))
			if err != nil {
				return nil, nil, err
			}
			if err := store.Insert(t); err != nil {
				return nil, nil, err
			}
			id++
		}
		for j := 0; j < nCut; j++ {
			t, err := coldHot(id, j)
			if err != nil {
				return nil, nil, err
			}
			if err := store.Insert(t); err != nil {
				return nil, nil, err
			}
			id++
		}
		if err := store.Flush(); err != nil {
			return nil, nil, err
		}
	}
	return store, disk, nil
}

// partitionCost is the materialized reference the stream is measured
// against: every partition's own query run to completion on a cold
// cache, one partition after another, each charged its table-open
// cost (the Nfrac × Costinit term) before its scan. This is the plan
// that scans each partition, then merges the per-partition results.
// The store holds no RAM buffer and no deletes, so nothing else
// contributes.
func partitionCost(ctx context.Context, disk *sim.Disk, store *fracture.Store, req fracture.Req) (time.Duration, error) {
	return coldRun(disk, store.DropCaches, func() error {
		for _, part := range store.Partitions() {
			disk.Open(part.Name())
			var err error
			if req.Kind == fracture.KindTopK {
				_, _, err = part.TopK(ctx, req.Value, req.K)
			} else {
				_, _, err = part.Query(ctx, req.Value, req.QT)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// StreamingLatency measures what true incremental streaming buys over
// the materialized per-partition execution (partitionCost), in modeled
// disk time (deterministic per scale/seed):
//
//   - first result: the modeled I/O consumed before the first result
//     is available. The materialized path pays its full cost before
//     anything yields; the merged stream needs one head per partition.
//   - top-k drain: the stream stops scanning — and stops charging — at
//     the k-th result (cross-partition early termination), skipping
//     every fracture's cutoff chase; the materialized path runs every
//     partition's own top-k to completion first.
//   - PTQ full drain: a control row — draining the whole stream
//     charges exactly the materialized cost, so streaming is free when
//     everything is consumed.
func StreamingLatency(ctx context.Context, e *Env) (*Experiment, error) {
	store, disk, err := buildStreamingStore(e)
	if err != nil {
		return nil, err
	}

	cold := func(run func() error) (time.Duration, error) {
		return coldRun(disk, store.DropCaches, run)
	}
	streamCost := func(req fracture.Req, pulls int) (time.Duration, error) {
		// pulls < 0 drains the stream; otherwise it stops (and closes)
		// after that many results.
		return cold(func() error {
			prep, err := store.Prepare(ctx, req)
			if err != nil {
				return err
			}
			st := prep.Stream(ctx)
			defer st.Close()
			for n := 0; pulls < 0 || n < pulls; n++ {
				_, ok, err := st.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			return nil
		})
	}

	// qt below the cutoff: the full drain must merge the cutoff
	// entries in, but the stream defers every partition's chase until
	// the consumer actually pulls below the cutoff boundary.
	const ptqQT = 0.05
	ptq := fracture.Req{Kind: fracture.KindPTQ, Value: "hot", QT: ptqQT, Parallelism: 1}
	topk := fracture.Req{Kind: fracture.KindTopK, Value: "hot", K: streamingTopK, Parallelism: 1}

	exp := &Experiment{
		ID:      "streaming-latency",
		Title:   fmt.Sprintf("Incremental streaming vs materialized execution (%d partitions)", store.NumFractures()+1),
		XLabel:  "measurement",
		Columns: []string{"Streaming [s]", "Materialized [s]", "Saved %"},
		Notes:   "modeled cold-cache disk time; 'first result' is the I/O consumed before the first row is available",
	}
	row := func(label string, stream, mat time.Duration) {
		saved := 0.0
		if mat > 0 {
			saved = 100 * (1 - float64(stream)/float64(mat))
		}
		exp.Rows = append(exp.Rows, Row{
			Label:  label,
			Values: []float64{seconds(stream), seconds(mat), saved},
		})
	}

	matTopK, err := partitionCost(ctx, disk, store, topk)
	if err != nil {
		return nil, err
	}
	firstTopK, err := streamCost(topk, 1)
	if err != nil {
		return nil, err
	}
	row(fmt.Sprintf("top-%d first result", streamingTopK), firstTopK, matTopK)
	fullTopK, err := streamCost(topk, -1)
	if err != nil {
		return nil, err
	}
	row(fmt.Sprintf("top-%d early-terminated drain", streamingTopK), fullTopK, matTopK)
	if fullTopK >= matTopK {
		return nil, fmt.Errorf("bench: streamed top-k charged %v, materialized %v — early termination saved nothing", fullTopK, matTopK)
	}

	matPTQ, err := partitionCost(ctx, disk, store, ptq)
	if err != nil {
		return nil, err
	}
	firstPTQ, err := streamCost(ptq, 1)
	if err != nil {
		return nil, err
	}
	row(fmt.Sprintf("Q1 qt=%.2f first result", ptqQT), firstPTQ, matPTQ)
	fullPTQ, err := streamCost(ptq, -1)
	if err != nil {
		return nil, err
	}
	row(fmt.Sprintf("Q1 qt=%.2f full drain", ptqQT), fullPTQ, matPTQ)
	if fullPTQ != matPTQ {
		return nil, fmt.Errorf("bench: streamed PTQ drain charged %v, materialized %v — parity broken", fullPTQ, matPTQ)
	}
	return exp, nil
}
