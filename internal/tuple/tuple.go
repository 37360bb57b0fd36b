// Package tuple defines the uncertain tuple model stored in UPI heap
// files and the binary codec used to serialize whole tuples into
// B+Tree leaves and heap pages.
//
// A tuple mirrors the paper's running example (Table 1/4): a unique
// TupleID, an existence probability, deterministic string fields
// (Name, Journal, ...), uncertain discrete attributes (Institution,
// Country, ...), and an opaque payload standing in for the remaining
// row width.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"upidb/internal/prob"
)

// Tuple is one uncertain row.
type Tuple struct {
	// ID is the unique tuple identifier (the paper's TupleID).
	ID uint64
	// Existence is the probability the tuple exists at all.
	Existence float64
	// Det holds deterministic named fields, in schema order.
	Det []DetField
	// Unc holds uncertain discrete attributes, in schema order.
	Unc []UncField
	// Payload pads the tuple to a realistic row width; it is opaque.
	Payload []byte
}

// DetField is a deterministic named string field.
type DetField struct {
	Name  string
	Value string
}

// UncField is an uncertain attribute with a discrete distribution.
type UncField struct {
	Name string
	Dist prob.Discrete
}

// DetValue returns the deterministic field by name.
func (t *Tuple) DetValue(name string) (string, bool) {
	for _, f := range t.Det {
		if f.Name == name {
			return f.Value, true
		}
	}
	return "", false
}

// Uncertain returns the distribution of the named uncertain attribute.
func (t *Tuple) Uncertain(name string) (prob.Discrete, bool) {
	for _, f := range t.Unc {
		if f.Name == name {
			return f.Dist, true
		}
	}
	return nil, false
}

// Confidence returns the possible-world confidence that this tuple's
// named uncertain attribute equals value: Existence × P(value).
func (t *Tuple) Confidence(attr, value string) float64 {
	d, ok := t.Uncertain(attr)
	if !ok {
		return 0
	}
	return prob.Confidence(t.Existence, d, value)
}

// Validate checks probability invariants on all uncertain fields.
func (t *Tuple) Validate() error {
	if t.Existence < 0 || t.Existence > 1 {
		return fmt.Errorf("tuple %d: existence %v out of range", t.ID, t.Existence)
	}
	for _, f := range t.Unc {
		if len(f.Dist) == 0 {
			return fmt.Errorf("tuple %d: uncertain attribute %q has no alternatives", t.ID, f.Name)
		}
		if err := f.Dist.Validate(); err != nil {
			return fmt.Errorf("tuple %d attribute %q: %w", t.ID, f.Name, err)
		}
	}
	return nil
}

// Binary layout (all big endian):
//
//	[8: ID][8: existence bits]
//	[2: nDet] nDet × ([2: nameLen][name][2: valLen][val])
//	[2: nUnc] nUnc × ([2: nameLen][name][2: nAlts] nAlts × ([2: valLen][val][8: prob bits]))
//	[4: payloadLen][payload]

// AppendEncode appends the binary encoding of t to dst.
func AppendEncode(dst []byte, t *Tuple) []byte {
	dst = binary.BigEndian.AppendUint64(dst, t.ID)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.Existence))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Det)))
	for _, f := range t.Det {
		dst = appendStr16(dst, f.Name)
		dst = appendStr16(dst, f.Value)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Unc)))
	for _, f := range t.Unc {
		dst = appendStr16(dst, f.Name)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Dist)))
		for _, a := range f.Dist {
			dst = appendStr16(dst, a.Value)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Prob))
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Payload)))
	return append(dst, t.Payload...)
}

// Encode returns the binary encoding of t.
func Encode(t *Tuple) []byte { return AppendEncode(nil, t) }

// Decode parses a tuple from b. The returned tuple owns copies of all
// data; b may be reused.
func Decode(b []byte) (*Tuple, error) {
	d := decoder{buf: b}
	t := &Tuple{}
	t.ID = d.u64()
	t.Existence = math.Float64frombits(d.u64())
	nDet := int(d.u16())
	if !d.failed() && nDet > 0 {
		t.Det = make([]DetField, nDet)
		for i := 0; i < nDet; i++ {
			t.Det[i].Name = d.str16()
			t.Det[i].Value = d.str16()
		}
	}
	nUnc := int(d.u16())
	if !d.failed() && nUnc > 0 {
		t.Unc = make([]UncField, nUnc)
		for i := 0; i < nUnc; i++ {
			t.Unc[i].Name = d.str16()
			nAlts := int(d.u16())
			if d.failed() {
				break
			}
			dist := make(prob.Discrete, nAlts)
			for j := 0; j < nAlts; j++ {
				dist[j].Value = d.str16()
				dist[j].Prob = math.Float64frombits(d.u64())
			}
			t.Unc[i].Dist = dist
		}
	}
	plen := int(d.u32())
	if !d.failed() && plen > 0 {
		p := d.bytes(plen)
		if !d.failed() {
			t.Payload = append([]byte(nil), p...)
		}
	}
	if d.failed() {
		return nil, fmt.Errorf("tuple: decode: %w", d.err())
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("tuple: decode: %d trailing bytes", len(d.buf))
	}
	return t, nil
}

// ConfidenceOf returns the confidence that the tuple encoded in enc has
// value for its uncertain attribute attr: exactly what Decode followed
// by Confidence returns (the first attribute named attr, then its first
// alternative equal to value), but computed by walking the encoding in
// place, with no allocation. It makes every check Decode makes, so a
// corrupt encoding fails with Decode's error whether or not it matches.
func ConfidenceOf(enc []byte, attr, value string) (float64, error) {
	d := decoder{buf: enc}
	d.u64() // ID
	existence := math.Float64frombits(d.u64())
	for n := int(d.u16()); n > 0 && !d.failed(); n-- {
		d.take(int(d.u16())) // name
		d.take(int(d.u16())) // value
	}
	found, p := false, 0.0
	for n := int(d.u16()); n > 0 && !d.failed(); n-- {
		name := d.take(int(d.u16()))
		match := !found && string(name) == attr
		found = found || match
		for nAlts := int(d.u16()); nAlts > 0 && !d.failed(); nAlts-- {
			v := d.take(int(d.u16()))
			bits := d.u64()
			if match && string(v) == value {
				p = math.Float64frombits(bits)
				match = false
			}
		}
	}
	if plen := int(d.u32()); !d.failed() && plen > 0 {
		d.take(plen)
	}
	if d.failed() {
		return 0, fmt.Errorf("tuple: decode: %w", d.err())
	}
	if len(d.buf) != 0 {
		return 0, fmt.Errorf("tuple: decode: %d trailing bytes", len(d.buf))
	}
	if !found {
		return 0, nil
	}
	return existence * p, nil
}

func appendStr16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

type decoder struct {
	buf []byte
	// need and have record the first read that ran past the end of
	// buf; need is 0 while every read has fit.
	need, have int
}

// failed reports whether a read has run past the end of the buffer.
func (d *decoder) failed() bool { return d.need != 0 }

// err describes the first short read; call it once failed is true.
func (d *decoder) err() error {
	return fmt.Errorf("short buffer: need %d, have %d", d.need, d.have)
}

// take consumes the next n bytes. A short read is recorded, not
// formatted, so that take stays small enough to inline; it also empties
// the buffer, so every later read fails too.
func (d *decoder) take(n int) []byte {
	if n > len(d.buf) {
		if !d.failed() {
			d.need, d.have = n, len(d.buf)
		}
		d.buf = nil
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str16() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) bytes(n int) []byte { return d.take(n) }
