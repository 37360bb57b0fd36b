package upidb

// Randomized soak test: a long random sequence of inserts, deletes,
// flushes, merges and queries on the facade, validated operation by
// operation against a trivially-correct in-memory reference
// implementation of PTQ semantics. This is the end-to-end correctness
// net over the whole stack (facade → fracture → upi → btree → pager →
// simulated disk).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTable is the oracle: a map of live tuples queried by brute force.
type refTable struct {
	live map[uint64]*Tuple
}

func (r *refTable) Insert(tup *Tuple) error { r.live[tup.ID] = tup; return nil }
func (r *refTable) Delete(id uint64) error  { delete(r.live, id); return nil }
func (r *refTable) Flush() error            { return nil }

// answer is the oracle's reply to a PTQ or top-k descriptor on a table
// whose primary attribute is "X".
func (r *refTable) answer(q Query) []uint64 {
	attr := q.attr
	if attr == "" {
		attr = "X"
	}
	if q.kind == KindTopK {
		all := r.query(attr, q.value, 0)
		return all[:min(q.k, len(all))]
	}
	return r.query(attr, q.value, q.qt)
}

func (r *refTable) query(attr, value string, qt float64) []uint64 {
	type hit struct {
		id   uint64
		conf float64
	}
	var hits []hit
	for id, tup := range r.live {
		// conf > 0: a PTQ matches tuples that have the value among
		// their alternatives; zero confidence means no alternative.
		if conf := tup.Confidence(attr, value); conf > 0 && conf >= qt {
			hits = append(hits, hit{id, conf})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].conf != hits[j].conf {
			return hits[i].conf > hits[j].conf
		}
		return hits[i].id < hits[j].id
	})
	ids := make([]uint64, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

func TestSoakAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(99))
	db := mustCreate(t)
	tab, err := db.CreateTable("soak", "X", []string{"Y"}, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTable{live: make(map[uint64]*Tuple)}
	values := make([]string, 12)
	for i := range values {
		values[i] = fmt.Sprintf("v%02d", i)
	}

	newTuple := func(id uint64) *Tuple {
		v1 := values[rng.Intn(len(values))]
		v2 := values[rng.Intn(len(values))]
		p := 0.25 + rng.Float64()*0.7
		alts := []Alternative{{Value: v1, Prob: p}}
		if v2 != v1 {
			alts = append(alts, Alternative{Value: v2, Prob: (1 - p) * 0.9})
		}
		x, err := NewDiscrete(alts)
		if err != nil {
			t.Fatal(err)
		}
		y, err := NewDiscrete([]Alternative{{Value: "y" + v1, Prob: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return &Tuple{
			ID: id, Existence: 0.5 + rng.Float64()/2,
			Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}},
		}
	}

	check := func(op int) {
		t.Helper()
		attr := "X"
		value := values[rng.Intn(len(values))]
		if rng.Intn(3) == 0 {
			attr = "Y"
			value = "y" + value
		}
		qt := []float64{0.05, 0.2, 0.5, 0.8}[rng.Intn(4)]
		want := ref.query(attr, value, qt)
		q := PTQ(attr, value, qt)
		if attr == "X" {
			q = PTQ("", value, qt)
		}
		res, err := tab.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("op %d: query %s=%s@%v: %v", op, attr, value, qt, err)
		}
		got := res.Collect()
		if len(got) != len(want) {
			t.Fatalf("op %d: query %s=%s@%v: got %d want %d", op, attr, value, qt, len(got), len(want))
		}
		for i := range got {
			if got[i].Tuple.ID != want[i] {
				t.Fatalf("op %d: result %d: got id %d want %d", op, i, got[i].Tuple.ID, want[i])
			}
			wantConf := ref.live[want[i]].Confidence(attr, value)
			if math.Abs(got[i].Confidence-wantConf) > 1e-9 {
				t.Fatalf("op %d: result %d: conf %v want %v", op, i, got[i].Confidence, wantConf)
			}
		}
	}

	nextID := uint64(1)
	const ops = 3000
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 55: // insert
			tup := newTuple(nextID)
			nextID++
			if err := tab.Insert(tup); err != nil {
				t.Fatal(err)
			}
			ref.live[tup.ID] = tup
		case r < 70: // delete a random live tuple
			for id := range ref.live {
				if err := tab.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(ref.live, id)
				break
			}
		case r < 80: // flush
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 83: // merge
			if err := tab.Merge(); err != nil {
				t.Fatal(err)
			}
		default: // query
			check(op)
		}
	}
	// Final exhaustive sweep over all values and thresholds.
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		for _, qt := range []float64{0, 0.1, 0.3, 0.6, 0.9} {
			want := ref.query("X", v, qt)
			res, err := tab.Run(context.Background(), PTQ("", v, qt))
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != len(want) {
				t.Fatalf("final sweep %s@%v: got %d want %d", v, qt, res.Len(), len(want))
			}
		}
	}
}
