// Package rdb implements SKV's snapshot serialization — the equivalent of
// Redis's RDB files. The master produces a dump during the initial
// synchronization phase (paper §III-C step ③: "the master node will send
// its own data file containing all key-value pairs to the slave node") and
// for persistence; slaves load it to bootstrap their dataset.
//
// Format: magic "SKVRDB01", then per-database sections introduced by a
// SELECTDB opcode, each entry optionally prefixed by an expiry opcode,
// terminated by EOF plus a CRC-32 (Castagnoli) of everything before it. An
// entry is its obj.Type byte, the key (uvarint length, bytes) and the value's
// body in obj's codec — the encoding DUMP payloads use too.
package rdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"skv/internal/obj"
	"skv/internal/store"
)

const magic = "SKVRDB01"

// Opcodes. Every other byte in opcode position is an entry's obj.Type.
const (
	opSelectDB = 0xFE
	opExpireMS = 0xFD
	opEOF      = 0xFF
)

// Errors returned by Load.
var (
	ErrBadMagic = errors.New("rdb: bad magic")
	ErrBadCRC   = errors.New("rdb: checksum mismatch")
	ErrCorrupt  = errors.New("rdb: corrupt payload")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Dump serializes the full store.
func Dump(s *store.Store) []byte {
	out := []byte(magic)
	dbi := -1
	s.EachEntry(func(edb int, key string, o *obj.Object, expireAt int64) bool {
		if edb != dbi { // EachEntry visits the databases in index order
			dbi = edb
			out = binary.AppendUvarint(append(out, opSelectDB), uint64(dbi))
		}
		if expireAt > 0 {
			out = binary.BigEndian.AppendUint64(append(out, opExpireMS), uint64(expireAt))
		}
		out = binary.AppendUvarint(append(out, byte(o.Type)), uint64(len(key)))
		out = obj.AppendValue(append(out, key...), o)
		return true
	})
	out = append(out, opEOF)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// Load replaces the store's contents with the dump. The store is flushed
// first only if the payload validates structurally (magic + CRC).
func Load(s *store.Store, data []byte) error {
	if len(data) < len(magic)+5 || string(data[:len(magic)]) != magic {
		return ErrBadMagic
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(data[len(body):]) {
		return ErrBadCRC
	}
	r := obj.NewReader(body[len(magic):])
	s.FlushAll()
	dbi, expireAt := 0, int64(0)
	for {
		switch op := r.Byte(); {
		case r.Err() != nil:
			return ErrCorrupt
		case op == opEOF:
			if r.Len() != 0 {
				return fmt.Errorf("%w: %d bytes after EOF", ErrCorrupt, r.Len())
			}
			return nil
		case op == opSelectDB:
			n := r.Uvarint()
			if n >= uint64(s.NumDBs()) {
				return fmt.Errorf("%w: db index %d out of range", ErrCorrupt, n)
			}
			dbi = int(n)
		case op == opExpireMS:
			expireAt = int64(r.Uint64())
		case op > byte(obj.TZSet):
			return fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, op)
		default:
			key := string(r.Bytes())
			if o := r.Value(obj.Type(op), s.NewSeed); o != nil {
				s.SetRaw(dbi, key, o, expireAt)
			}
			expireAt = 0
		}
	}
}
