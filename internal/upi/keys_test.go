package upi

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestHeapKeyRoundTrip(t *testing.T) {
	f := func(value string, confBits uint16, id uint64) bool {
		conf := float64(confBits) / math.MaxUint16 // [0, 1]
		k := HeapKey(value, conf, id)
		v, c, i, err := DecodeHeapKey(k)
		return err == nil && v == value && c == conf && i == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapKeyOrdering pins the clustering order: value ASC, then
// confidence DESC, then tuple ID ASC.
func TestHeapKeyOrdering(t *testing.T) {
	f := func(v1, v2 string, c1Bits, c2Bits uint16, id1, id2 uint64) bool {
		c1 := float64(c1Bits) / math.MaxUint16
		c2 := float64(c2Bits) / math.MaxUint16
		k1 := HeapKey(v1, c1, id1)
		k2 := HeapKey(v2, c2, id2)
		cmp := bytes.Compare(k1, k2)
		switch {
		case v1 != v2:
			return (v1 < v2) == (cmp < 0)
		case c1 != c2:
			return (c1 > c2) == (cmp < 0) // DESC
		case id1 != id2:
			return (id1 < id2) == (cmp < 0)
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapKeyDecodeErrors(t *testing.T) {
	k := HeapKey("MIT", 0.5, 7)
	for _, n := range []int{0, 1, len(k) / 2, len(k) - 1} {
		if _, _, _, err := DecodeHeapKey(k[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, _, _, err := DecodeHeapKey(append(k, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestPointersRoundTrip(t *testing.T) {
	f := func(vals []string, confs []uint16) bool {
		n := len(vals)
		if len(confs) < n {
			n = len(confs)
		}
		if n > 20 {
			n = 20
		}
		ps := make([]Pointer, n)
		for i := 0; i < n; i++ {
			if len(vals[i]) > 1000 {
				return true
			}
			ps[i] = Pointer{Value: vals[i], Conf: float64(confs[i]) / math.MaxUint16}
		}
		got, err := DecodePointers(EncodePointers(ps))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != ps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPointersDecodeErrors(t *testing.T) {
	enc := EncodePointers([]Pointer{{Value: "MIT", Conf: 0.95}})
	for _, n := range []int{0, 1, 3, len(enc) - 1} {
		if _, err := DecodePointers(enc[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, err := DecodePointers(append(enc, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestValuePrefixBounds(t *testing.T) {
	// Every heap key for a value sorts within [prefix, prefixEnd).
	f := func(value string, confBits uint16, id uint64) bool {
		conf := float64(confBits) / math.MaxUint16
		k := HeapKey(value, conf, id)
		start := ValuePrefix(value)
		end := ValuePrefixEnd(value)
		if bytes.Compare(start, k) > 0 {
			return false
		}
		return end == nil || bytes.Compare(k, end) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// Keys of a *different* value never fall inside the range.
	a := HeapKey("MIU", 0.99, 1) // adjacent string to MIT
	if bytes.Compare(a, ValuePrefix("MIT")) >= 0 && bytes.Compare(a, ValuePrefixEnd("MIT")) < 0 {
		t.Fatal("MIU key inside MIT range")
	}
}

func TestPointerHeapKey(t *testing.T) {
	p := Pointer{Value: "MIT", Conf: 0.95}
	if !bytes.Equal(p.HeapKey(7), HeapKey("MIT", 0.95, 7)) {
		t.Fatal("Pointer.HeapKey mismatch")
	}
}

// TestHeapKeyConfIDMatchesDecode: the value-free decoder returns
// DecodeHeapKey's confidence and ID, and fails exactly where it fails.
func TestHeapKeyConfIDMatchesDecode(t *testing.T) {
	check := func(k []byte) {
		t.Helper()
		_, wantConf, wantID, wantErr := DecodeHeapKey(k)
		conf, id, err := heapKeyConfID(k)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || math.Float64bits(conf) != math.Float64bits(wantConf) || id != wantID {
			t.Fatalf("heapKeyConfID(%x) = %v, %d, %v; DecodeHeapKey %v, %d, %v", k, conf, id, err, wantConf, wantID, wantErr)
		}
	}
	for _, value := range []string{"", "MIT", "a\x00b", "\x00\xff"} {
		k := HeapKey(value, 0.72, 9)
		for n := 0; n <= len(k); n++ {
			check(k[:n])
		}
		check(append(k, 0))
	}
	check([]byte{'M', 0x00, 0x7F})
}
