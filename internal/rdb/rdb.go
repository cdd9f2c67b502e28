// Package rdb implements SKV's snapshot serialization — the equivalent of
// Redis's RDB files. The master produces a dump during the initial
// synchronization phase (paper §III-C step ③: "the master node will send
// its own data file containing all key-value pairs to the slave node") and
// for persistence; slaves load it to bootstrap their dataset.
//
// Format: magic "SKVRDB01", then per-database sections introduced by a
// SELECTDB opcode, each entry optionally prefixed by an expiry opcode,
// terminated by EOF plus a CRC-32 (Castagnoli) of everything before it.
package rdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"skv/internal/obj"
	"skv/internal/store"
)

const magic = "SKVRDB01"

// Opcodes.
const (
	opSelectDB = 0xFE
	opExpireMS = 0xFD
	opEOF      = 0xFF
)

// Value type tags.
const (
	tString = 0
	tList   = 1
	tHash   = 2
	tSet    = 3
	tZSet   = 4
)

// Errors returned by Load.
var (
	ErrBadMagic = errors.New("rdb: bad magic")
	ErrBadCRC   = errors.New("rdb: checksum mismatch")
	ErrCorrupt  = errors.New("rdb: corrupt payload")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Dump serializes the full store.
func Dump(s *store.Store) []byte {
	out := []byte(magic)
	for dbi := 0; dbi < s.NumDBs(); dbi++ {
		dbi := dbi
		first := true
		s.EachEntry(func(edb int, key string, o *obj.Object, expireAt int64) bool {
			if edb != dbi {
				return true
			}
			if first {
				out = append(out, opSelectDB)
				out = appendUvarint(out, uint64(dbi))
				first = false
			}
			if expireAt > 0 {
				out = append(out, opExpireMS)
				var tmp [8]byte
				binary.BigEndian.PutUint64(tmp[:], uint64(expireAt))
				out = append(out, tmp[:]...)
			}
			out = appendObject(out, key, o)
			return true
		})
	}
	out = append(out, opEOF)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(out, crcTable))
	return append(out, crc[:]...)
}

func appendObject(out []byte, key string, o *obj.Object) []byte {
	switch o.Type {
	case obj.TString:
		out = append(out, tString)
		out = appendString(out, key)
		out = appendBytes(out, o.StringBytes())
	case obj.TList:
		out = append(out, tList)
		out = appendString(out, key)
		l := o.List()
		out = appendUvarint(out, uint64(l.Len()))
		l.Each(func(v any) bool {
			out = appendBytes(out, v.([]byte))
			return true
		})
	case obj.THash:
		out = append(out, tHash)
		out = appendString(out, key)
		out = appendUvarint(out, uint64(o.HashLen()))
		o.HashEach(func(f string, v []byte) bool {
			out = appendString(out, f)
			out = appendBytes(out, v)
			return true
		})
	case obj.TSet:
		out = append(out, tSet)
		out = appendString(out, key)
		out = appendUvarint(out, uint64(o.SetLen()))
		o.SetEach(func(m string) bool {
			out = appendString(out, m)
			return true
		})
	case obj.TZSet:
		out = append(out, tZSet)
		out = appendString(out, key)
		els := o.ZRangeByRank(0, -1)
		out = appendUvarint(out, uint64(len(els)))
		for _, e := range els {
			out = appendString(out, e.Member)
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], math.Float64bits(e.Score))
			out = append(out, tmp[:]...)
		}
	}
	return out
}

// reader is a cursor over the dump payload.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, ErrCorrupt
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Against what remains, not pos+n: a length near 2^64 wraps that sum.
	if n > uint64(len(r.b)-r.pos) {
		return nil, ErrCorrupt
	}
	out := append([]byte(nil), r.b[r.pos:r.pos+int(n)]...)
	r.pos += int(n)
	return out, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.pos+8 > len(r.b) {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

// Load replaces the store's contents with the dump. The store is flushed
// first only if the payload validates structurally (magic + CRC).
func Load(s *store.Store, data []byte) error {
	if len(data) < len(magic)+5 || string(data[:len(magic)]) != magic {
		return ErrBadMagic
	}
	body := data[:len(data)-4]
	wantCRC := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != wantCRC {
		return ErrBadCRC
	}
	r := &reader{b: body, pos: len(magic)}
	s.FlushAll()
	dbi := 0
	var pendingExpire int64
	for {
		op, err := r.byte()
		if err != nil {
			return err
		}
		switch op {
		case opEOF:
			return nil
		case opSelectDB:
			n, err := r.uvarint()
			if err != nil {
				return err
			}
			if n >= uint64(s.NumDBs()) {
				return fmt.Errorf("%w: db index %d out of range", ErrCorrupt, n)
			}
			dbi = int(n)
		case opExpireMS:
			n, err := r.uint64()
			if err != nil {
				return err
			}
			pendingExpire = int64(n)
		case tString, tList, tHash, tSet, tZSet:
			if err := loadObject(s, r, dbi, op, pendingExpire); err != nil {
				return err
			}
			pendingExpire = 0
		default:
			return fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, op)
		}
	}
}

func loadObject(s *store.Store, r *reader, dbi int, typ byte, expireAt int64) error {
	keyB, err := r.bytes()
	if err != nil {
		return err
	}
	key := string(keyB)
	var o *obj.Object
	switch typ {
	case tString:
		v, err := r.bytes()
		if err != nil {
			return err
		}
		o = obj.NewString(v)
	case tList:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		o = obj.NewList()
		for i := uint64(0); i < n; i++ {
			v, err := r.bytes()
			if err != nil {
				return err
			}
			o.List().PushTail(v)
		}
	case tHash:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		o = obj.NewHash(s.NewSeed())
		for i := uint64(0); i < n; i++ {
			f, err := r.bytes()
			if err != nil {
				return err
			}
			v, err := r.bytes()
			if err != nil {
				return err
			}
			o.HashSet(string(f), v)
		}
	case tSet:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		o = obj.NewSet(s.NewSeed())
		for i := uint64(0); i < n; i++ {
			m, err := r.bytes()
			if err != nil {
				return err
			}
			o.SetAdd(string(m))
		}
	case tZSet:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		o = obj.NewZSet(s.NewSeed())
		for i := uint64(0); i < n; i++ {
			m, err := r.bytes()
			if err != nil {
				return err
			}
			bits, err := r.uint64()
			if err != nil {
				return err
			}
			o.ZAdd(string(m), math.Float64frombits(bits))
		}
	}
	s.SetRaw(dbi, key, o, expireAt)
	return nil
}
