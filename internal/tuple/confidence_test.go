package tuple

import (
	"encoding/binary"
	"math"
	"testing"

	"upidb/internal/prob"
)

// referenceConfidence is what ConfidenceOf must reproduce: a full
// Decode followed by Confidence.
func referenceConfidence(enc []byte, attr, value string) (float64, error) {
	t, err := Decode(enc)
	if err != nil {
		return 0, err
	}
	return t.Confidence(attr, value), nil
}

// checkConfidenceOf fails unless ConfidenceOf and the reference agree
// on the error (its text included) and on the confidence's bits.
func checkConfidenceOf(t *testing.T, enc []byte, attr, value string) {
	t.Helper()
	want, wantErr := referenceConfidence(enc, attr, value)
	got, err := ConfidenceOf(enc, attr, value)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ConfidenceOf(%x, %q, %q) error %v, Decode error %v", enc, attr, value, err, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ConfidenceOf(%x, %q, %q) = %v, Decode+Confidence = %v", enc, attr, value, got, want)
	}
}

// ambiguousTuple repeats an attribute name and an alternative value
// (Decode does not reject either), so first-match semantics show.
func ambiguousTuple() *Tuple {
	return &Tuple{
		ID:        7,
		Existence: 0.5,
		Unc: []UncField{
			{Name: "A", Dist: prob.Discrete{{Value: "x", Prob: 0.25}, {Value: "x", Prob: 0.5}}},
			{Name: "A", Dist: prob.Discrete{{Value: "y", Prob: 1}}},
			{Name: "", Dist: prob.Discrete{{Value: "", Prob: 0.125}}},
		},
	}
}

func TestConfidenceOfMatchesDecode(t *testing.T) {
	queries := [][2]string{
		{"Institution", "Brown"}, {"Institution", "MIT"}, {"Institution", "CMU"},
		{"Country", "US"}, {"Name", "Alice"}, {"Absent", "US"},
		{"A", "x"}, {"A", "y"}, {"", ""},
	}
	negative := sampleTuple()
	negative.Existence = -0.5 // a missing value yields -0, not +0
	nan := sampleTuple()
	nan.Existence = math.NaN()
	for _, tup := range []*Tuple{sampleTuple(), {ID: 1, Existence: 1}, ambiguousTuple(), negative, nan} {
		enc := Encode(tup)
		for _, q := range queries {
			checkConfidenceOf(t, enc, q[0], q[1])
			// Every truncation and a trailing byte fail the same way.
			for n := 0; n < len(enc); n++ {
				checkConfidenceOf(t, enc[:n], q[0], q[1])
			}
			checkConfidenceOf(t, append(enc[:len(enc):len(enc)], 0), q[0], q[1])
			// So does 0xFFFF written over any two bytes: every length
			// field it hits points past the end, wherever that field
			// sits relative to the attribute the query asks about.
			for off := 16; off+2 <= len(enc); off++ {
				bad := append([]byte(nil), enc...)
				binary.BigEndian.PutUint16(bad[off:], 0xFFFF)
				checkConfidenceOf(t, bad, q[0], q[1])
			}
		}
	}
	if c, err := ConfidenceOf(Encode(ambiguousTuple()), "A", "x"); err != nil || c != 0.125 {
		t.Fatalf("first attribute, first alternative: got %v, %v; want 0.125", c, err)
	}
}

func TestConfidenceOfDoesNotAllocate(t *testing.T) {
	enc := Encode(sampleTuple())
	for _, q := range [][2]string{{"Institution", "CMU"}, {"Country", "Japan"}, {"Absent", "US"}, {"Institution", "MIT"}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ConfidenceOf(enc, q[0], q[1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("ConfidenceOf(%q, %q) made %v allocations per call, want 0", q[0], q[1], allocs)
		}
	}
}

// FuzzConfidenceOf checks ConfidenceOf differentially against Decode +
// Confidence: the same error or none, and bit-identical confidences.
// The committed corpus in testdata/fuzz/FuzzConfidenceOf holds real
// tuple encodings and truncated or length-corrupted variants of them.
func FuzzConfidenceOf(f *testing.F) {
	f.Add(Encode(sampleTuple()), "Institution", "MIT")
	f.Add(Encode(ambiguousTuple()), "A", "x")
	f.Add(Encode(&Tuple{ID: 1, Existence: 1}), "", "")
	f.Fuzz(func(t *testing.T, enc []byte, attr, value string) {
		checkConfidenceOf(t, enc, attr, value)
	})
}
