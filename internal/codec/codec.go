// Package codec is the compact binary wire format for the engine's durable
// hot path: checkpoint delta records, WAL frames, and log-shipping payloads.
//
// Every persisted record used to be encoding/json-marshaled; profiling the
// checkpoint flusher showed reflection and string escaping dominating the
// marshal cost once PR 5 had flattened record *size*. This package replaces
// that with a hand-rolled, versioned, length-prefixed binary layout:
//
//	magic(0xBF) version(1) kind(1) fields...
//
// Field primitives are uvarint (lengths, counts, enums), zigzag varint
// (signed ints, timestamps, durations), 8-byte little-endian IEEE-754
// (numbers), and length-prefixed byte strings. Strings are interned per
// record: the first occurrence is written literally and enters the string
// table, repeats are written as a 1-2 byte back-reference — repeated scope
// and task names cost almost nothing. Each record carries its own table, so
// every record decodes standalone.
//
// Encoders are pooled and append into one reusable buffer with explicit
// record marks, so steady-state encoding of a whole checkpoint batch is
// allocation-free. Decoders never panic on corrupt input: every read is
// bounds-checked and errors are sticky.
//
// This is the only record format the engine and the store read. Records
// written before it (JSON, which always starts with '{') fail NewDecoder
// with ErrLegacy; `bioopera migrate <store-dir>` converts such a store
// offline, and is the only reader that Sniffs for them. Version is bumped
// on any layout change; decoders reject versions they do not know rather
// than misparse them.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"bioopera/internal/ocr"
)

const (
	// Magic is the first byte of every binary record. JSON records of
	// earlier engine generations begin with '{' (0x7B) and interned
	// process texts are printable program text, so a record without it is
	// refused (ErrLegacy), never misparsed.
	Magic byte = 0xBF
	// Version is the current layout version, the second byte of every
	// record.
	Version byte = 1
	// headerLen is Magic + Version + kind.
	headerLen = 3
)

// Sniff reports whether data looks like a binary codec record (as opposed
// to a JSON record of an earlier engine generation, or raw text). Only the
// offline migration needs to ask.
func Sniff(data []byte) bool { return len(data) > 0 && data[0] == Magic }

// ErrCorrupt is wrapped by every decode error of a binary record.
var ErrCorrupt = errors.New("codec: corrupt record")

// ErrLegacy is returned by NewDecoder for data without the magic byte: a
// record written before this format existed. The store holding it must be
// converted offline before the engine can read it.
var ErrLegacy = errors.New("codec: record predates the binary format; convert the store with `bioopera migrate <store-dir>`")

// Encoder appends binary records to one reusable buffer. Begin/End bracket
// each record; Span returns the bytes of a finished record. The zero value
// is ready to use; Get/Put recycle encoders (buffer, mark slice, and
// intern table included) so steady-state encoding allocates nothing.
type Encoder struct {
	// Buf holds every record encoded since the last Reset, back to back.
	// Appending may relocate the backing array, so take Span slices only
	// after all records of a batch are encoded.
	Buf   []byte
	marks []int
	strs  map[string]uint64 // per-record intern table: string -> slot
	keys  []string          // scratch for sorted map iteration
}

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// Get returns a pooled Encoder, reset and ready for Begin.
func Get() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Put recycles an Encoder. The caller must be done with every Span slice:
// they alias the encoder's buffer.
func Put(e *Encoder) { encPool.Put(e) }

// Reset drops all encoded records but keeps the allocated capacity.
func (e *Encoder) Reset() {
	e.Buf = e.Buf[:0]
	e.marks = e.marks[:0]
}

// Begin starts a new record of the given kind: it writes the header and
// clears the intern table (records decode standalone).
func (e *Encoder) Begin(kind byte) {
	if e.strs == nil {
		e.strs = make(map[string]uint64, 16)
	} else {
		clear(e.strs)
	}
	e.Buf = append(e.Buf, Magic, Version, kind)
}

// End finishes the current record and returns its index for Span.
func (e *Encoder) End() int {
	e.marks = append(e.marks, len(e.Buf))
	return len(e.marks) - 1
}

// Records reports how many records have been finished since Reset.
func (e *Encoder) Records() int { return len(e.marks) }

// Span returns the encoded bytes of record i. The slice aliases the
// encoder's buffer: it is valid until the next Reset/Put, and must only be
// taken once the batch's records are all encoded (End moves the marks, and
// appending can relocate the buffer).
func (e *Encoder) Span(i int) []byte {
	start := 0
	if i > 0 {
		start = e.marks[i-1]
	}
	return e.Buf[start:e.marks[i]:e.marks[i]]
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) {
	e.Buf = binary.AppendUvarint(e.Buf, u)
}

// Int appends a signed int as a zigzag varint.
func (e *Encoder) Int(v int64) {
	e.Buf = binary.AppendUvarint(e.Buf, uint64(v<<1)^uint64(v>>63))
}

// Bool appends one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Float appends an IEEE-754 double, little-endian.
func (e *Encoder) Float(f float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(f))
}

// String appends an interned string. The head uvarint's low bit
// discriminates: even = literal of length head>>1 follows (and the string
// joins the record's table), odd = back-reference to table slot head>>1.
func (e *Encoder) String(s string) {
	if slot, ok := e.strs[s]; ok {
		e.Uvarint(slot<<1 | 1)
		return
	}
	e.strs[s] = uint64(len(e.strs))
	e.Uvarint(uint64(len(s)) << 1)
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a length-prefixed byte string (not interned).
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Value appends one dynamically typed whiteboard value. Strings go through
// the record's intern table, so an output echoing an input costs two bytes.
func (e *Encoder) Value(v ocr.Value) {
	k := v.Kind()
	e.Buf = append(e.Buf, byte(k))
	switch k {
	case ocr.KindBool:
		e.Bool(v.AsBool())
	case ocr.KindNumber:
		e.Float(v.AsNum())
	case ocr.KindString:
		e.String(v.AsStr())
	case ocr.KindList:
		n := v.Len()
		e.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			e.Value(v.At(i))
		}
	}
}

// ValueSlice appends a counted list of values. nil and empty both encode
// as count 0 and decode as nil, matching the JSON omitempty round-trip.
func (e *Encoder) ValueSlice(vs []ocr.Value) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Value(v)
	}
}

// StringSlice appends a counted list of interned strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// ValueMap appends a counted map in sorted key order, so identical maps
// encode to identical bytes regardless of Go's map iteration order.
func (e *Encoder) ValueMap(m map[string]ocr.Value) {
	e.Uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.Value(m[k])
	}
	e.keys = keys[:0]
}

// Decoder reads one binary record. Errors are sticky: after the first
// malformed read every later read returns a zero value, and Err reports the
// failure — callers check once at the end. A Decoder never panics on
// corrupt input; every read is bounds-checked.
type Decoder struct {
	buf  []byte
	off  int
	strs []string // intern table, filled by literal strings in order
	err  error
}

// NewDecoder validates the record header and returns a decoder positioned
// at the first field, plus the record kind. Data without the magic byte
// fails with ErrLegacy, a short or unknown-version header with ErrCorrupt.
func NewDecoder(data []byte) (*Decoder, byte, error) {
	if len(data) == 0 || data[0] != Magic {
		return nil, 0, ErrLegacy
	}
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if data[1] != Version {
		return nil, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, data[1])
	}
	return &Decoder{buf: data, off: headerLen}, data[2], nil
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the sticky error, or an error if the record has trailing
// garbage — a full record must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return u
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// Float reads an IEEE-754 double.
func (d *Decoder) Float() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("float")
		return 0
	}
	u := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(u)
}

// String reads an interned string (literal or back-reference).
func (d *Decoder) String() string {
	head := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if head&1 == 1 { // back-reference
		slot := head >> 1
		if slot >= uint64(len(d.strs)) {
			d.fail("string backref")
			return ""
		}
		return d.strs[slot]
	}
	n := int(head >> 1)
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	d.strs = append(d.strs, s)
	return s
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the record buffer (no copy); a zero length decodes as nil.
func (d *Decoder) Bytes() []byte {
	n := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Value reads one dynamically typed value.
func (d *Decoder) Value() ocr.Value {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("value kind")
		return ocr.Null
	}
	k := ocr.Kind(d.buf[d.off])
	d.off++
	switch k {
	case ocr.KindNull:
		return ocr.Null
	case ocr.KindBool:
		return ocr.Bool(d.Bool())
	case ocr.KindNumber:
		return ocr.Num(d.Float())
	case ocr.KindString:
		return ocr.Str(d.String())
	case ocr.KindList:
		n := int(d.Uvarint())
		if d.err != nil || n < 0 || n > len(d.buf)-d.off {
			d.fail("value list")
			return ocr.Null
		}
		vs := make([]ocr.Value, 0, n)
		for i := 0; i < n; i++ {
			vs = append(vs, d.Value())
			if d.err != nil {
				return ocr.Null
			}
		}
		return ocr.List(vs...)
	}
	d.fail("value kind")
	return ocr.Null
}

// ValueSlice reads a counted list of values; count 0 decodes as nil.
func (d *Decoder) ValueSlice() []ocr.Value {
	n := int(d.Uvarint())
	if d.err != nil || n == 0 {
		return nil
	}
	// Every element needs at least one byte; a count beyond that is a
	// corrupt length, not a huge allocation.
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("value slice")
		return nil
	}
	vs := make([]ocr.Value, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return vs
}

// StringSlice reads a counted list of interned strings; count 0 decodes as
// nil.
func (d *Decoder) StringSlice() []string {
	n := int(d.Uvarint())
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("string slice")
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ss = append(ss, d.String())
		if d.err != nil {
			return nil
		}
	}
	return ss
}

// ValueMap reads a counted map; count 0 decodes as nil.
func (d *Decoder) ValueMap() map[string]ocr.Value {
	n := int(d.Uvarint())
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("value map")
		return nil
	}
	m := make(map[string]ocr.Value, n)
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.Value()
		if d.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
