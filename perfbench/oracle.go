package main

import (
	"fmt"
	"math"
	"slices"

	"upidb"
)

// scored is one answer row: a tuple or observation ID and its
// confidence.
type scored struct {
	ID   uint64
	Conf float64
}

// confEps is the tolerance on confidences. The oracle computes them by
// the data model's definition (existence × the value's probability,
// or the location's probability mass in the circle); the engine reads
// them back from its own encoding.
const confEps = 1e-9

// sortScored orders rows the way the engine promises: confidence
// descending, ID ascending.
func sortScored(rs []scored) { slices.SortFunc(rs, cmpScored) }

func cmpScored(a, b scored) int {
	switch {
	case a.Conf > b.Conf:
		return -1
	case a.Conf < b.Conf:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// tupleOracle answers discrete PTQs and top-k queries by brute force
// over the generated tuples.
type tupleOracle struct {
	tuples []*upidb.Tuple
	ranked map[[2]string][]scored
}

func newTupleOracle(tuples []*upidb.Tuple) *tupleOracle {
	return &tupleOracle{tuples: tuples, ranked: make(map[[2]string][]scored)}
}

// prob is the probability of value in t's distribution of attr.
func prob(t *upidb.Tuple, attr, value string) float64 {
	for _, u := range t.Unc {
		if u.Name != attr {
			continue
		}
		for _, a := range u.Dist {
			if a.Value == value {
				return a.Prob
			}
		}
	}
	return 0
}

// rank returns every tuple with a non-zero confidence for attr=value,
// in answer order.
func (o *tupleOracle) rank(attr, value string) []scored {
	key := [2]string{attr, value}
	if rs, ok := o.ranked[key]; ok {
		return rs
	}
	var rs []scored
	for _, t := range o.tuples {
		if c := t.Existence * prob(t, attr, value); c > 0 {
			rs = append(rs, scored{t.ID, c})
		}
	}
	sortScored(rs)
	o.ranked[key] = rs
	return rs
}

// ptq is the answer to attr=value with confidence >= qt.
func (o *tupleOracle) ptq(attr, value string, qt float64) []scored {
	rs := o.rank(attr, value)
	n := 0
	for n < len(rs) && rs[n].Conf >= qt {
		n++
	}
	return rs[:n]
}

// topk is the answer to the k most confident tuples with attr=value.
func (o *tupleOracle) topk(attr, value string, k int) []scored {
	rs := o.rank(attr, value)
	return rs[:min(k, len(rs))]
}

// sameAnswer compares an answer with the oracle's, IDs and order
// exactly and confidences within confEps. It describes the first
// difference.
func sameAnswer(got, want []scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Conf-want[i].Conf) > confEps {
			return fmt.Errorf("result %d is (%d, %.9f), want (%d, %.9f)", i, got[i].ID, got[i].Conf, want[i].ID, want[i].Conf)
		}
	}
	return nil
}
