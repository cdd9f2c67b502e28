package store

// Slot-migration data plane: DUMP / RESTORE / MIGRATEDEL, the three
// commands the cluster's key-by-key slot mover drives.
//
// The mover cannot block the source's event loop the way real Redis
// MIGRATE does (source and target are separate simulated machines), so
// the transfer is optimistic instead: DUMP at the source, RESTORE ... IFEQ
// at the target, then MIGRATEDEL (delete-if-value-unchanged) back at the
// source. A client write that slips between DUMP and MIGRATEDEL makes the
// CAS fail (:0) and the mover retries from a fresh DUMP — no blocking, no
// lost updates.
//
// A payload is a version byte, the 8-byte absolute expiry, the value's
// obj.Type byte and its body in obj's codec — the encoding RDB snapshots
// use too. The body is canonical, so equal values always serialize to
// identical bytes regardless of dict iteration order or rehash progress —
// the property the bytes-equality CAS rides on. The absolute expiry is
// deliberately EXCLUDED from the CAS comparison: relative expiries
// replicate verbatim and resolve against each replica's own clock, so
// absolute deadlines may legitimately differ master↔slave while the value
// bytes converge.

import (
	"encoding/binary"
	"sort"
	"strings"

	"skv/internal/obj"
	"skv/internal/resp"
)

// dumpVersion guards the payload layout; RESTORE rejects payloads from a
// different encoder generation instead of misparsing them.
const dumpVersion = 2

// dumpHeaderLen is the version byte + the 8-byte expiry; the type byte and
// the body follow.
const dumpHeaderLen = 9

// SerializedEntry renders the full DUMP payload for a live key: header
// (version, expiry) + type + canonical body. ok is false when the key is
// absent (or lazily expired).
func (s *Store) SerializedEntry(dbi int, key string) (payload []byte, ok bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, false
	}
	var expireAt int64
	if v, has := s.shardDB(dbi, key).expires.Get(key); has {
		expireAt = v.(int64)
	}
	b := binary.BigEndian.AppendUint64(append(make([]byte, 0, 64), dumpVersion), uint64(expireAt))
	return obj.AppendValue(append(b, byte(o.Type)), o), true
}

// valueBytesOf extracts the CAS-relevant portion of a payload (type and
// body, everything after the header). ok is false for truncated or alien
// payloads.
func valueBytesOf(payload []byte) ([]byte, bool) {
	if len(payload) <= dumpHeaderLen || payload[0] != dumpVersion {
		return nil, false
	}
	return payload[dumpHeaderLen:], true
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
	// One seed per RESTORE whatever the type, so the store's seed sequence
	// does not depend on what the payload holds.
	seed := s.NewSeed()
	val, _ := valueBytesOf(payload) // an alien header leaves nothing to read
	r := obj.NewReader(val)
	o := r.Value(obj.Type(r.Byte()), func() int64 { return seed })
	if o == nil || r.Len() != 0 {
		return resp.AppendError(nil, "ERR Bad data format or checksum in RESTORE payload"), false
	}
	expireAt := int64(binary.BigEndian.Uint64(payload[1:dumpHeaderLen]))
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
