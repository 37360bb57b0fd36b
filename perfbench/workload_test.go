package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Small sizes keep the tests fast; the benchmark itself runs at size 1.
const (
	testDBLPSize   = 0.02
	testCartelSize = 0.05
)

// Two identically built instances must give identical counts for the
// same op list, for every workload and for more than one seed.
func TestCountPassRepeats(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("%s/seed%d", wDBLP, seed), func(t *testing.T) {
			var got []counts
			for range 2 {
				e, err := buildDBLP(testDBLPSize, 1)
				if err != nil {
					t.Fatal(err)
				}
				ops := newDBLPMix(e.data).list(rand.New(rand.NewSource(countSeed(seed))), dblpCountOps)
				p, err := dblpCountPass(ctx, e, ops)
				_ = e.close(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if p.queries != len(ops) || p.c.HeapEntries == 0 || p.c.ModeledMS == 0 {
					t.Fatalf("empty count pass: %+v", p)
				}
				got = append(got, p.c)
			}
			if err := sameCounts(got[0], got[1]); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(fmt.Sprintf("%s/seed%d", wCartel, seed), func(t *testing.T) {
			var got []counts
			for range 2 {
				e, err := buildCartel(testCartelSize, 1)
				if err != nil {
					t.Fatal(err)
				}
				ops := cartelList(rand.New(rand.NewSource(countSeed(seed))), e, cartelCountOps, 0)
				p, err := cartelCountPass(ctx, e, ops)
				_ = e.close(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if p.queries == 0 || p.c.HeapEntries == 0 {
					t.Fatalf("empty count pass: %+v", p)
				}
				got = append(got, p.c)
			}
			if err := sameCounts(got[0], got[1]); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(fmt.Sprintf("%s/seed%d", wServe, seed), func(t *testing.T) {
			var got []counts
			for range 2 {
				e, err := buildServe(seed, serveCountOps)
				if err != nil {
					t.Fatal(err)
				}
				p, err := serveCountPass(ctx, e)
				if cerr := e.close(ctx); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if p.queries == 0 || p.c.HeapEntries == 0 || p.disk.BytesWritten == 0 || p.merges == 0 {
					t.Fatalf("empty count pass: %+v", p)
				}
				got = append(got, p.c)
			}
			if err := sameCounts(got[0], got[1]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A short measured phase of each workload passes its own answer
// checks, and the checks catch a wrong answer.
func TestPhasesPassTheirChecks(t *testing.T) {
	ctx := context.Background()
	t.Run(wDBLP, func(t *testing.T) {
		e, err := buildDBLP(testDBLPSize, dblpShards)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close(ctx)
		ops := newDBLPMix(e.data).list(rand.New(rand.NewSource(7)), 400)
		s, _, err := dblpPhase(ctx, e, ops, 300*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.errs) > 0 || len(s.checks) == 0 {
			t.Fatalf("%d errors (%q), %d checks", len(s.errs), s.errs, len(s.checks))
		}
		o := newTupleOracle(e.data.Authors)
		for _, c := range s.checks {
			if err := sameAnswer(c.rows, c.op.want(o)); err != nil {
				t.Fatalf("%v: %v", c.op, err)
			}
		}
		for _, c := range s.checks {
			if len(c.rows) > 1 {
				c.rows[0], c.rows[1] = c.rows[1], c.rows[0]
				if sameAnswer(c.rows, c.op.want(o)) == nil {
					t.Fatalf("%v: swapped answer accepted", c.op)
				}
				return
			}
		}
		t.Fatal("no checked answer had two rows")
	})
	t.Run(wCartel, func(t *testing.T) {
		e, err := buildCartel(testCartelSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close(ctx)
		times := &insertTimes{epoch: time.Now(), called: make([]atomic.Int64, len(e.pool)), acked: make([]atomic.Int64, len(e.pool))}
		// The pool holds the inserts of cartelMaxRate ops for one
		// second; the phase is short enough that even a build without
		// the race detector does not run the list out.
		ops := cartelList(rand.New(rand.NewSource(7)), e, cartelMaxRate, 0)
		s, _, err := cartelPhase(ctx, e, ops, 100*time.Millisecond, nil, times)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.errs) > 0 || len(s.checks) == 0 || len(s.writes) == 0 {
			t.Fatalf("%d errors (%q), %d checks, %d inserts", len(s.errs), s.errs, len(s.checks), len(s.writes))
		}
		for _, c := range s.checks {
			if err := verifySpatial(e, times, c); err != nil {
				t.Fatalf("%v: %v", c.op, err)
			}
		}
		for _, c := range s.checks {
			if len(c.rows) > 0 {
				c.rows = c.rows[1:]
				if verifySpatial(e, times, c) == nil {
					t.Fatalf("%v: answer with a missing row accepted", c.op)
				}
				return
			}
		}
		t.Fatal("no checked answer had a row")
	})
	t.Run(wServe, func(t *testing.T) {
		e, err := buildServe(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close(ctx)
		out, err := servePhase(ctx, e, 500*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.errs) > 0 || len(out.reads) == 0 || len(out.writes) == 0 {
			t.Fatalf("%d errors (%q), %d reads, %d writes", len(out.errs), out.errs, len(out.reads), len(out.writes))
		}
		if err := e.shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := e.db.Close(); err != nil {
			t.Fatal(err)
		}
		live, unknown := e.serveModel()
		rep := &report{figs: newFigures()}
		if err := verifyReopen(ctx, e.mem, live, unknown, e.data.Countries, rep); err != nil || rep.failed != 0 {
			t.Fatalf("reopen check: %v, %q", err, rep.problems)
		}
		// Forget one acknowledged delete: the reopened table no longer
		// matches the model.
		deleted := false
		for _, cl := range e.clients {
			for id, t := range cl.state {
				if t == nil && !deleted {
					live[id] = e.data.Authors[0]
					deleted = true
				}
			}
		}
		if !deleted {
			t.Fatal("the phase acknowledged no delete")
		}
		rep = &report{figs: newFigures()}
		if err := verifyReopen(ctx, e.mem, live, unknown, e.data.Countries, rep); err != nil || rep.failed == 0 {
			t.Fatalf("a lost delete went unnoticed: %v", err)
		}
	})
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wDBLP, "--trace", "2"},
		{"--workload", wDBLP, "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
		if !strings.Contains(errOut.String(), "perfbench") {
			t.Errorf("%q: no diagnostic", args)
		}
	}
}
