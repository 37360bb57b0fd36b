package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"upidb"
)

// Span names. The benchmark records a span around every call it makes
// into a layer; the engine's WithTrace callback adds shard-dispatch
// instants and partition-scan spans under whichever benchmark span is
// open when they fire.
const (
	spanOp        = "op"               // one benchmark operation (root)
	spanRun       = "upidb.run"        // Table.Run / SpatialTable.Run
	spanFirstPull = "upidb.first_pull" // All: up to the first result
	spanDrainRest = "upidb.drain_rest" // All: the rest of the drain
	spanCollect   = "upidb.collect"    // Collect
	spanInsert    = "upidb.insert"     // Insert (discrete or spatial)
	spanHTTP      = "http.request"     // one HTTP request, send to last byte
	spanDispatch  = "shard.dispatch"   // engine event: a shard receives its request
	spanScan      = "fracture.scan"    // engine events: partition scan start to end
	noParent      = int32(-1)
	spanFileMode  = 0o644
	spanDirMode   = 0o755
	spanFlushSize = 1 << 16
)

// span is one recorded interval. Spans of one operation share Req;
// Parent indexes the causing span within the same operation.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard,omitempty"`
	Part   int    `json:"part,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced phase in memory. A nil *tracer
// records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the trace of one operation.
func (t *tracer) begin() *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{t: t, req: t.next.Add(1), open: make(map[[2]int]int32)}
	o.cur.Store(noParent)
	return o
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), spanDirMode); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, spanFileMode)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, spanFlushSize)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// opTrace collects the spans of one operation. The engine callback may
// run on scan workers concurrently with the benchmark goroutine, so
// every method locks. A nil *opTrace records nothing.
type opTrace struct {
	t   *tracer
	req int64
	cur atomic.Int32 // innermost open benchmark span: parent of engine spans

	mu    sync.Mutex
	spans []span
	open  map[[2]int]int32 // (shard, part) -> open scan span
}

// start opens a benchmark span under the innermost open one and
// returns its id.
func (o *opTrace) start(name string) int32 {
	if o == nil {
		return noParent
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	id := int32(len(o.spans))
	o.spans = append(o.spans, span{Req: o.req, ID: id, Parent: o.cur.Load(), Name: name, Start: o.t.now()})
	o.cur.Store(id)
	return id
}

// end closes span id and makes its parent the innermost open span.
func (o *opTrace) end(id int32) {
	if o == nil || id < 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans[id].End = o.t.now()
	o.cur.Store(o.spans[id].Parent)
}

// engine returns the WithTrace callback that turns engine events into
// spans of this operation.
func (o *opTrace) engine() upidb.TraceFunc {
	if o == nil {
		return nil
	}
	return func(ev upidb.TraceEvent) {
		switch ev.Kind {
		case upidb.TraceDispatch, upidb.TraceScanStart, upidb.TraceScanEnd:
		default:
			return
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		now := o.t.now()
		key := [2]int{ev.Shard, ev.Part}
		switch ev.Kind {
		case upidb.TraceDispatch:
			o.spans = append(o.spans, span{Req: o.req, ID: int32(len(o.spans)), Parent: o.cur.Load(),
				Name: spanDispatch, Start: now, End: now, Shard: ev.Shard})
		case upidb.TraceScanStart:
			id := int32(len(o.spans))
			o.spans = append(o.spans, span{Req: o.req, ID: id, Parent: o.cur.Load(),
				Name: spanScan, Start: now, Shard: ev.Shard, Part: ev.Part})
			o.open[key] = id
		case upidb.TraceScanEnd:
			if id, ok := o.open[key]; ok {
				o.spans[id].End = now
				delete(o.open, key)
			}
		}
	}
}

// finish hands the operation's spans to the tracer. A scan the engine
// never reported ending is closed at finish time.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	now := o.t.now()
	for _, id := range o.open {
		o.spans[id].End = now
	}
	spans := o.spans
	o.spans = nil
	o.mu.Unlock()

	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.spans = append(o.t.spans, spans...)
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its child spans cover (children clipped to the
// parent, overlaps among children counted once).
func selfTimes(spans []span) map[[2]int64]time.Duration {
	type key = [2]int64
	children := make(map[key][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Req, int64(s.Parent)}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[key]time.Duration, len(spans))
	for _, s := range spans {
		k := key{s.Req, int64(s.ID)}
		out[k] = s.dur() - time.Duration(covered(s.Start, s.End, children[k]))
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int {
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		}
		return 0
	})
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}
