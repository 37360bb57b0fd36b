package keyenc

import (
	"bytes"
	"fmt"
	"testing"
)

// referenceDecodeString is the byte-at-a-time decoder DecodeString
// replaced; it pins DecodeString's output and error texts.
func referenceDecodeString(b []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != strEscape {
			out = append(out, c)
			continue
		}
		if i+1 >= len(b) {
			return "", nil, fmt.Errorf("keyenc: truncated string escape")
		}
		switch b[i+1] {
		case strTerm:
			return string(out), b[i+2:], nil
		case strEscTag:
			out = append(out, strEscape)
			i++
		default:
			return "", nil, fmt.Errorf("keyenc: bad string escape 0x%02x", b[i+1])
		}
	}
	return "", nil, fmt.Errorf("keyenc: unterminated string")
}

// checkStringCodecs fails unless DecodeString agrees with the reference
// decoder and SkipString agrees with DecodeString, on the error text
// and the remaining bytes.
func checkStringCodecs(t *testing.T, b []byte) {
	t.Helper()
	want, wantRest, wantErr := referenceDecodeString(b)
	got, rest, err := DecodeString(b)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want || !bytes.Equal(rest, wantRest) {
		t.Fatalf("DecodeString(%x) = %q, %x, %v; reference %q, %x, %v", b, got, rest, err, want, wantRest, wantErr)
	}
	skipped, skipErr := SkipString(b)
	if fmt.Sprint(skipErr) != fmt.Sprint(err) || !bytes.Equal(skipped, rest) {
		t.Fatalf("SkipString(%x) = %x, %v; DecodeString rest %x, %v", b, skipped, skipErr, rest, err)
	}
	if err == nil && !bytes.Equal(AppendString(nil, got), b[:len(b)-len(rest)]) {
		t.Fatalf("DecodeString(%x) = %q does not re-encode to the bytes it consumed", b, got)
	}
}

func TestStringCodecsMatchReference(t *testing.T) {
	inputs := [][]byte{
		nil, {0x00}, {0x00, 0x00}, {0x00, 0xFF}, {0x00, 0x7F}, {'a', 'b'},
		{'a', 0x00, 0xFF}, {'a', 0x00, 0xFF, 0x00}, {0x00, 0xFF, 0x00, 0xFF, 0x00, 0x00, 'x'},
	}
	for _, s := range []string{"", "MIT", "a\x00b", "\x00", "\x00\xff", "\xff\x00\x00"} {
		enc := AppendUint64(AppendString(nil, s), 7)
		for n := 0; n <= len(enc); n++ {
			inputs = append(inputs, enc[:n])
		}
	}
	for _, b := range inputs {
		checkStringCodecs(t, b)
	}
}

// TestStringCodecAllocs: DecodeString builds each string with one
// allocation, escaped or not; SkipString allocates nothing.
func TestStringCodecAllocs(t *testing.T) {
	for _, s := range []string{"Massachusetts Institute of Technology", "a\x00b\x00c"} {
		enc := AppendString(nil, s)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeString(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Fatalf("DecodeString(%q): %v allocations, want 1", s, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := SkipString(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("SkipString(%q): %v allocations, want 0", s, n)
		}
	}
}

// FuzzSkipString checks SkipString differentially against DecodeString
// (the same error or none, and the same remainder), and DecodeString
// against the byte-at-a-time reference. The committed corpus in
// testdata/fuzz/FuzzSkipString holds real heap keys and truncated or
// corrupted variants of them.
func FuzzSkipString(f *testing.F) {
	f.Add(AppendFloat64Desc(AppendString(nil, "MIT"), 0.72))
	f.Add(AppendString(nil, "a\x00b"))
	f.Add([]byte{0x00, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkStringCodecs(t, b)
	})
}
