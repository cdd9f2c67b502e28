package store

// Slot-migration data plane: DUMP / RESTORE / MIGRATEDEL, the three
// commands the cluster's key-by-key slot mover drives, plus the canonical
// per-entry serialization they share.
//
// The mover cannot block the source's event loop the way real Redis
// MIGRATE does (source and target are separate simulated machines), so
// the transfer is optimistic instead: DUMP at the source, RESTORE ... IFEQ
// at the target, then MIGRATEDEL (delete-if-value-unchanged) back at the
// source. A client write that slips between DUMP and MIGRATEDEL makes the
// CAS fail (:0) and the mover retries from a fresh DUMP — no blocking, no
// lost updates.
//
// The serialization is canonical: hash fields and set members are sorted,
// so two objects with equal content always serialize to identical bytes
// regardless of dict iteration order or rehash progress — the property the
// bytes-equality CAS rides on. The absolute expiry rides in the payload
// header but is deliberately EXCLUDED from the CAS comparison: relative
// expiries replicate verbatim and resolve against each replica's own
// clock, so absolute deadlines may legitimately differ master↔slave while
// the value bytes converge.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"skv/internal/obj"
	"skv/internal/resp"
)

// migratePayloadVersion guards the wire format; RESTORE rejects payloads
// from a different encoder generation instead of misparsing them.
const migratePayloadVersion = 1

// payloadHeaderLen is version byte + type byte + 8-byte expiry.
const payloadHeaderLen = 10

// appendLenBytes appends a 32-bit big-endian length followed by the bytes.
func appendLenBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// serializeValue renders an object's content canonically (type byte +
// sorted collection payload) — the portion of a DUMP payload the CAS
// comparisons use.
func serializeValue(o *obj.Object) []byte {
	b := []byte{byte(o.Type)}
	switch o.Type {
	case obj.TString:
		b = appendLenBytes(b, o.StringBytes())
	case obj.TList:
		l := o.List()
		b = binary.BigEndian.AppendUint32(b, uint32(l.Len()))
		l.Each(func(v any) bool {
			b = appendLenBytes(b, v.([]byte))
			return true
		})
	case obj.THash:
		type pair struct {
			f string
			v []byte
		}
		var pairs []pair
		o.HashEach(func(f string, v []byte) bool {
			pairs = append(pairs, pair{f, v})
			return true
		})
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].f < pairs[j].f })
		b = binary.BigEndian.AppendUint32(b, uint32(len(pairs)))
		for _, p := range pairs {
			b = appendLenBytes(b, []byte(p.f))
			b = appendLenBytes(b, p.v)
		}
	case obj.TSet:
		var members []string
		o.SetEach(func(m string) bool {
			members = append(members, m)
			return true
		})
		sort.Strings(members)
		b = binary.BigEndian.AppendUint32(b, uint32(len(members)))
		for _, m := range members {
			b = appendLenBytes(b, []byte(m))
		}
	case obj.TZSet:
		els := o.ZRangeByRank(0, -1)
		b = binary.BigEndian.AppendUint32(b, uint32(len(els)))
		for _, e := range els {
			b = appendLenBytes(b, []byte(e.Member))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Score))
		}
	}
	return b
}

// SerializedEntry renders the full DUMP payload for a live key: header
// (version, expiry) + canonical value. ok is false when the key is absent
// (or lazily expired).
func (s *Store) SerializedEntry(dbi int, key string) (payload []byte, ok bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, false
	}
	var expireAt int64
	if v, has := s.shardDB(dbi, key).expires.Get(key); has {
		expireAt = v.(int64)
	}
	b := make([]byte, 0, 64)
	b = append(b, migratePayloadVersion, byte(o.Type))
	b = binary.BigEndian.AppendUint64(b, uint64(expireAt))
	return append(b, serializeValue(o)...), true
}

// valueBytesOf extracts the CAS-relevant portion of a payload (everything
// after the header). ok is false for truncated or alien payloads.
func valueBytesOf(payload []byte) ([]byte, bool) {
	if len(payload) < payloadHeaderLen+1 || payload[0] != migratePayloadVersion {
		return nil, false
	}
	return payload[payloadHeaderLen:], true
}

// payloadReader walks a serialized payload.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) u32() uint32 {
	if r.bad || len(r.b) < 4 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *payloadReader) bytes() []byte {
	n := int(r.u32())
	if r.bad || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// deserializeEntry rebuilds an object (and its absolute expiry) from a
// DUMP payload. The seed feeds the rebuilt object's nested tables.
func deserializeEntry(payload []byte, seed int64) (*obj.Object, int64, error) {
	if len(payload) < payloadHeaderLen+1 {
		return nil, 0, fmt.Errorf("payload truncated")
	}
	if payload[0] != migratePayloadVersion {
		return nil, 0, fmt.Errorf("payload version %d", payload[0])
	}
	expireAt := int64(binary.BigEndian.Uint64(payload[2:10]))
	typ := obj.Type(payload[payloadHeaderLen])
	if typ != obj.Type(payload[1]) {
		return nil, 0, fmt.Errorf("payload type mismatch")
	}
	r := &payloadReader{b: payload[payloadHeaderLen+1:]}
	if typ == obj.TList || typ == obj.THash {
		// List elements and hash values are kept as slices of the body, and
		// the payload is a command argument its sender may only be lending:
		// the store copies what it keeps.
		r.b = append([]byte(nil), r.b...)
	}
	var o *obj.Object
	switch typ {
	case obj.TString:
		o = obj.NewString(r.bytes())
	case obj.TList:
		o = obj.NewList()
		n := r.u32()
		for i := uint32(0); i < n && !r.bad; i++ {
			if v := r.bytes(); !r.bad {
				o.List().PushTail(v)
			}
		}
	case obj.THash:
		o = obj.NewHash(seed)
		n := r.u32()
		for i := uint32(0); i < n && !r.bad; i++ {
			f := r.bytes()
			v := r.bytes()
			if !r.bad {
				o.HashSet(string(f), v)
			}
		}
	case obj.TSet:
		o = obj.NewSet(seed)
		n := r.u32()
		for i := uint32(0); i < n && !r.bad; i++ {
			if m := r.bytes(); !r.bad {
				o.SetAdd(string(m))
			}
		}
	case obj.TZSet:
		o = obj.NewZSet(seed)
		n := r.u32()
		for i := uint32(0); i < n && !r.bad; i++ {
			m := r.bytes()
			score := math.Float64frombits(r.u64())
			if !r.bad {
				o.ZAdd(string(m), score)
			}
		}
	default:
		return nil, 0, fmt.Errorf("payload names unknown type %d", typ)
	}
	if r.bad || len(r.b) != 0 {
		return nil, 0, fmt.Errorf("payload corrupt")
	}
	return o, expireAt, nil
}

// cmdDump serializes a key for migration; nil bulk when absent — absence
// is an answer (the key already moved), not an error.
func cmdDump(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	payload, ok := s.SerializedEntry(dbi, string(argv[1]))
	if !ok {
		return nullBulk(), false
	}
	return resp.AppendBulk(nil, payload), false
}

// cmdRestore installs a serialized entry: RESTORE key payload
// [REPLACE | IFEQ prevpayload]. Plain RESTORE refuses to overwrite
// (BUSYKEY); REPLACE overwrites unconditionally; IFEQ — the mover's form —
// applies only when the key is absent or its current value bytes equal
// prevpayload's (i.e. the target still holds this mover's previous
// transfer attempt, not a fresher ASKING-redirected client write), and
// replies :1 applied / :0 diverged.
func cmdRestore(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key, payload := string(argv[1]), argv[2]
	mode, prev := "", []byte(nil)
	switch len(argv) {
	case 3:
	case 4:
		mode = strings.ToLower(string(argv[3]))
		if mode != "replace" {
			return resp.AppendError(nil, "ERR syntax error"), false
		}
	case 5:
		mode = strings.ToLower(string(argv[3]))
		if mode != "ifeq" {
			return resp.AppendError(nil, "ERR syntax error"), false
		}
		prev = argv[4]
	default:
		return resp.AppendError(nil, "ERR wrong number of arguments for 'restore' command"), false
	}
	o, expireAt, err := deserializeEntry(payload, s.NewSeed())
	if err != nil {
		return resp.AppendError(nil, "ERR Bad data format or checksum in RESTORE payload"), false
	}
	existing, hasKey := s.SerializedEntry(dbi, key)
	switch mode {
	case "":
		if hasKey {
			return resp.AppendError(nil, "BUSYKEY Target key name already exists."), false
		}
	case "ifeq":
		if hasKey {
			cur, _ := valueBytesOf(existing)
			want, okPrev := valueBytesOf(prev)
			if !okPrev || string(cur) != string(want) {
				return zero(), false
			}
		}
	}
	s.setKey(dbi, key, o)
	if expireAt > 0 {
		s.setExpire(dbi, key, expireAt)
	}
	if mode == "ifeq" {
		return one(), true
	}
	return ok(), true
}

// cmdMigrateDel is the mover's source-side commit: delete the key only if
// its current canonical value bytes still equal the payload the mover
// transferred (:1), otherwise leave it and report :0 — the mover retries
// from a fresh DUMP. Running the comparison inside one store dispatch
// makes it atomic with respect to client writes on the same shard.
func cmdMigrateDel(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	cur, hasKey := s.SerializedEntry(dbi, key)
	if !hasKey {
		return zero(), false
	}
	curVal, _ := valueBytesOf(cur)
	wantVal, okWant := valueBytesOf(argv[2])
	if !okWant || string(curVal) != string(wantVal) {
		return zero(), false
	}
	s.deleteKey(dbi, key)
	return one(), true
}

// KeysWhere collects up to limit live keys of a database satisfying pred,
// in sorted order — deterministic regardless of dict iteration order. The
// CLUSTER GETKEYSINSLOT surface rides on this (pred = "key hashes to the
// slot"); limit <= 0 means no limit.
func (s *Store) KeysWhere(dbi, limit int, pred func(key string) bool) []string {
	var keys []string
	s.EachEntry(func(d int, key string, _ *obj.Object, _ int64) bool {
		if d == dbi && pred(key) {
			keys = append(keys, key)
		}
		return true
	})
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

func init() {
	register("dump", cmdDump, 2, false, 1)
	register("restore", cmdRestore, -3, true, 1)
	register("migratedel", cmdMigrateDel, 3, true, 1)
	registerServer("asking", 1)
}
