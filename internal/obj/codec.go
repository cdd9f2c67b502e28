package obj

// The object codec: the one encoding of a value's content, shared by the
// snapshot file (internal/rdb) and the DUMP/RESTORE payload the slot mover
// ships (internal/store). Each framing writes the Type byte and what else is
// its own — rdb the key, the database and expiry opcodes and a checksum;
// DUMP a version byte and the absolute expiry — around the body:
//
//	string  len s
//	list    n, then n × (len e)
//	hash    n, then n × (len f, len v), fields in byte order
//	set     n, then n × (len m), members in byte order
//	zset    n, then n × (len m, score), in rank order
//
// where every length and count n is a uvarint, "len x" is x's length followed
// by x, and a score is its 8 IEEE-754 bytes, big-endian. The body is
// canonical: equal contents encode to equal bytes whatever the encoding,
// insertion order or rehash progress — the property DUMP's compare-and-swap
// (RESTORE ... IFEQ, MIGRATEDEL) rides on.

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

// errCorrupt is what a Reader reports after a malformed read.
var errCorrupt = errors.New("obj: corrupt encoding")

// AppendValue appends the body of o (not its Type) to dst.
func AppendValue(dst []byte, o *Object) []byte {
	switch o.Type {
	case TString:
		dst = appendLen(dst, o.StringBytes())
	case TList:
		l := o.List()
		dst = binary.AppendUvarint(dst, uint64(l.Len()))
		l.Each(func(v any) bool {
			dst = appendLen(dst, v.([]byte))
			return true
		})
	case THash:
		type pair struct {
			f string
			v []byte
		}
		pairs := make([]pair, 0, o.HashLen())
		o.HashEach(func(f string, v []byte) bool {
			pairs = append(pairs, pair{f, v})
			return true
		})
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].f < pairs[j].f })
		dst = binary.AppendUvarint(dst, uint64(len(pairs)))
		for _, p := range pairs {
			dst = appendLen(appendLen(dst, p.f), p.v)
		}
	case TSet:
		members := make([]string, 0, o.SetLen())
		o.SetEach(func(m string) bool {
			members = append(members, m)
			return true
		})
		sort.Strings(members)
		dst = binary.AppendUvarint(dst, uint64(len(members)))
		for _, m := range members {
			dst = appendLen(dst, m)
		}
	case TZSet:
		els := o.ZRangeByRank(0, -1)
		dst = binary.AppendUvarint(dst, uint64(len(els)))
		for _, e := range els {
			dst = binary.BigEndian.AppendUint64(appendLen(dst, e.Member), math.Float64bits(e.Score))
		}
	}
	return dst
}

func appendLen[T string | []byte](dst []byte, b T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Reader is a cursor over encoded bytes, for the framings' decoders. The
// first malformed read sticks: every later read returns a zero value, and
// Err reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader starts a Reader at the front of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports whether a read has failed.
func (r *Reader) Err() error { return r.err }

// Len reports the bytes not yet read.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail() {
	r.b, r.err = nil, errCorrupt
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uint64 reads 8 big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the input:
// a caller copies what it keeps.
func (r *Reader) Bytes() []byte {
	n := r.count()
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// count reads the number of items that follow — bytes of a string, elements
// of a collection — and refuses one larger than the bytes that remain, since
// every item takes at least one. The check is against what remains, not a
// sum: a count near 2^64 would wrap one.
func (r *Reader) count() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// Value reads the body of a value of type t and builds its object. The
// object copies everything it keeps: the input may be a buffer its owner
// lends for the call only. seed is called once for a hash, set or zset, to
// seed its nested tables. Value returns nil, and Err an error, on a
// truncated body, an unknown type, a count or length larger than the bytes
// that remain, or a NaN score — ZADD refuses one, and in a sorted set it
// breaks the order every range and rank lookup relies on.
func (r *Reader) Value(t Type, seed func() int64) *Object {
	if r.err != nil {
		return nil
	}
	var o *Object
	switch t {
	case TString:
		o = NewString(r.Bytes())
	case TList:
		o = NewList()
		for i, n := 0, r.count(); i < n && r.err == nil; i++ {
			o.List().PushTail(append([]byte(nil), r.Bytes()...))
		}
	case THash:
		o = NewHash(seed())
		for i, n := 0, r.count(); i < n && r.err == nil; i++ {
			f := string(r.Bytes())
			o.HashSet(f, append([]byte(nil), r.Bytes()...))
		}
	case TSet:
		o = NewSet(seed())
		for i, n := 0, r.count(); i < n && r.err == nil; i++ {
			o.SetAdd(string(r.Bytes()))
		}
	case TZSet:
		o = NewZSet(seed())
		for i, n := 0, r.count(); i < n && r.err == nil; i++ {
			m := string(r.Bytes())
			if score := math.Float64frombits(r.Uint64()); math.IsNaN(score) {
				r.fail()
			} else {
				o.ZAdd(m, score)
			}
		}
	default:
		r.fail()
	}
	if r.err != nil {
		return nil
	}
	return o
}
