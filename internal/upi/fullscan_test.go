package upi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// fullScanReference answers FullScan's query by decoding every heap
// entry — key and tuple — and filtering the first decoded copy of each
// tuple.
func fullScanReference(tab *Table, attr, value string, qt float64) ([]Result, int, error) {
	if attr == "" {
		attr = tab.Attr()
	}
	seen := make(map[uint64]bool)
	var results []Result
	entries := 0
	var decodeErr error
	err := tab.Heap().Scan(nil, nil, func(k, v []byte) bool {
		entries++
		_, _, id, err := DecodeHeapKey(k)
		if err != nil {
			decodeErr = err
			return false
		}
		tup, err := tuple.Decode(v)
		if err != nil {
			decodeErr = err
			return false
		}
		if seen[id] {
			return true
		}
		seen[id] = true
		if conf := tup.Confidence(attr, value); conf > 0 && conf >= qt {
			results = append(results, Result{Tuple: tup, Confidence: conf})
		}
		return true
	})
	if err == nil {
		err = decodeErr
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Confidence != results[j].Confidence {
			return results[i].Confidence > results[j].Confidence
		}
		return results[i].Tuple.ID < results[j].Tuple.ID
	})
	return results, entries, err
}

// oracleTuples generates tuples with multi-alternative institutions —
// some with a second heap entry, some with alternatives below cutoff
// 0.3 that live only in the cutoff index ("rare" never reaches the
// heap) — and a secondary Country attribute.
func oracleTuples(t testing.TB, rng *rand.Rand, n int) []*tuple.Tuple {
	t.Helper()
	countries := []string{"US", "JP", "DE"}
	out := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		inst := []prob.Alternative{{Value: fmt.Sprintf("v%d", rng.Intn(6)), Prob: 0.4 + 0.14*rng.Float64()}}
		if i%3 == 0 {
			inst = append(inst, prob.Alternative{Value: "rare", Prob: 0.05 + 0.05*rng.Float64()})
		}
		if other := fmt.Sprintf("v%d", rng.Intn(6)); i%2 == 0 && other != inst[0].Value {
			inst = append(inst, prob.Alternative{Value: other, Prob: 0.05 + 0.3*rng.Float64()})
		}
		instD, err := prob.NewDiscrete(inst)
		if err != nil {
			t.Fatal(err)
		}
		c := rng.Intn(len(countries))
		country := []prob.Alternative{{Value: countries[c], Prob: 0.6 + 0.4*rng.Float64()}}
		if country[0].Prob < 0.9 {
			country = append(country, prob.Alternative{Value: countries[(c+1)%len(countries)], Prob: 1 - country[0].Prob})
		}
		countryD, err := prob.NewDiscrete(country)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &tuple.Tuple{
			ID:        uint64(i + 1),
			Existence: 0.4 + 0.6*rng.Float64(),
			Det:       []tuple.DetField{{Name: "Name", Value: fmt.Sprintf("author%d", i)}},
			Unc: []tuple.UncField{
				{Name: "Institution", Dist: instD},
				{Name: "Country", Dist: countryD},
			},
			Payload: bytes.Repeat([]byte{byte(i)}, rng.Intn(48)),
		})
	}
	return out
}

// TestFullScanMatchesReference: FullScan's rows, their order and its
// HeapEntries equal the decode-everything reference, and its rows are
// the brute-force answer over the inserted tuples, for the primary and
// a secondary attribute, an absent value, a value present only in the
// cutoff index, and thresholds at 0, below and above the cutoff.
func TestFullScanMatchesReference(t *testing.T) {
	const cutoff = 0.3
	tuples := oracleTuples(t, rand.New(rand.NewSource(29)), 400)
	opts := Options{Cutoff: cutoff, PageSize: 512}
	inserted, err := Create(newFS(), "ins", "Institution", []string{"Country"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := inserted.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkBuild(newFS(), "bulk", "Institution", []string{"Country"}, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	cutoffEntries := 0
	if err := inserted.CutoffIndex().Scan(nil, nil, func(_, _ []byte) bool { cutoffEntries++; return true }); err != nil {
		t.Fatal(err)
	}
	if cutoffEntries == 0 {
		t.Fatal("no alternative landed in the cutoff index; the oracle is vacuous")
	}

	ctx := context.Background()
	queries := []struct{ attr, value string }{
		{"", "v1"}, {"Institution", "v3"}, {"Institution", "rare"},
		{"Country", "JP"}, {"Country", "FR"}, {"Absent", "US"}, {"", "nowhere"},
	}
	for _, tab := range []*Table{inserted, bulk} {
		matched := 0
		for _, q := range queries {
			for _, qt := range []float64{0, 0.1, 0.5} {
				name := fmt.Sprintf("%s %s=%s qt=%v", tab.Name(), q.attr, q.value, qt)
				got, st, err := tab.FullScan(ctx, q.attr, q.value, qt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, entries, err := fullScanReference(tab, q.attr, q.value, qt)
				if err != nil {
					t.Fatalf("%s reference: %v", name, err)
				}
				if st.HeapEntries != entries || entries <= len(tuples) {
					t.Fatalf("%s: HeapEntries %d, reference %d, for %d tuples", name, st.HeapEntries, entries, len(tuples))
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, reference %d", name, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i].Confidence) != math.Float64bits(want[i].Confidence) ||
						!reflect.DeepEqual(got[i].Tuple, want[i].Tuple) {
						t.Fatalf("%s row %d: got tuple %d conf %v, reference tuple %d conf %v",
							name, i, got[i].Tuple.ID, got[i].Confidence, want[i].Tuple.ID, want[i].Confidence)
					}
				}
				attr := q.attr
				if attr == "" {
					attr = "Institution"
				}
				truth := 0
				for _, tup := range tuples {
					if c := tup.Confidence(attr, q.value); c > 0 && c >= qt {
						truth++
					}
				}
				if len(got) != truth {
					t.Fatalf("%s: %d rows, brute force over the inserted tuples %d", name, len(got), truth)
				}
				matched += len(got)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: every query was empty; the oracle is vacuous", tab.Name())
		}
		if rs, _, err := tab.FullScan(ctx, "", "rare", 0); err != nil || len(rs) == 0 {
			t.Fatalf("%s: cutoff-only value found %d rows (err %v)", tab.Name(), len(rs), err)
		}
	}
}

// TestFullScanCorruptEntries: a heap entry whose key or tuple bytes
// are corrupt fails the scan, whether or not the query matches it.
func TestFullScanCorruptEntries(t *testing.T) {
	ctx := context.Background()
	alice := tuple.Encode(runningExample(t)[0]) // Institution Brown or MIT
	cases := []struct {
		name     string
		key, val []byte
	}{
		{"truncated tuple, not matching", HeapKey("Zurich", 0.5, 99), alice[:len(alice)-3]},
		{"trailing byte, matching", HeapKey("Zurich", 0.5, 99), append(append([]byte(nil), alice...), 0)},
		{"unterminated key", []byte("Zurich"), alice},
		{"bad key escape", []byte{'Z', 0x00, 0x7F}, alice},
	}
	for _, c := range cases {
		tab := createExample(t, 0.1)
		if _, err := tab.Heap().Put(c.key, c.val); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct{ attr, value string }{{"", "Brown"}, {"", "Nowhere"}, {"Country", "US"}} {
			if _, _, err := tab.FullScan(ctx, q.attr, q.value, 0); err == nil {
				t.Fatalf("%s: FullScan(%q, %q) accepted the corrupt entry", c.name, q.attr, q.value)
			}
		}
	}
}

var benchFullScanRows int

// BenchmarkFullScan measures a secondary-attribute full scan that
// qualifies a few percent of a 5,000-tuple heap.
func BenchmarkFullScan(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tuples := make([]*tuple.Tuple, 0, 5000)
	for i := 0; i < cap(tuples); i++ {
		inst, err := prob.NewDiscrete([]prob.Alternative{
			{Value: fmt.Sprintf("inst%03d", rng.Intn(200)), Prob: 0.6},
			{Value: fmt.Sprintf("inst%03d", 200+rng.Intn(200)), Prob: 0.3},
		})
		if err != nil {
			b.Fatal(err)
		}
		country, err := prob.NewDiscrete([]prob.Alternative{{Value: fmt.Sprintf("country%02d", rng.Intn(40)), Prob: 1}})
		if err != nil {
			b.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{
			ID:        uint64(i + 1),
			Existence: 0.5 + 0.5*rng.Float64(),
			Det:       []tuple.DetField{{Name: "Name", Value: fmt.Sprintf("author%d", i)}},
			Unc:       []tuple.UncField{{Name: "Institution", Dist: inst}, {Name: "Country", Dist: country}},
			Payload:   bytes.Repeat([]byte{1}, 64),
		})
	}
	tab, err := BulkBuild(newFS(), "bench", "Institution", []string{"Country"}, Options{Cutoff: 0.25}, tuples)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		rs, _, err := tab.FullScan(ctx, "Country", "country07", 0.05)
		if err != nil {
			b.Fatal(err)
		}
		benchFullScanRows = len(rs)
	}
}
