package store

import (
	"strconv"

	"skv/internal/resp"
)

func cmdDel(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	n := int64(0)
	for _, k := range argv[1:] {
		if s.deleteKey(dbi, string(k)) {
			n++
		}
	}
	return resp.AppendInt(nil, n), n > 0
}

func cmdExists(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	n := int64(0)
	for _, k := range argv[1:] {
		if s.lookup(dbi, string(k)) != nil {
			n++
		}
	}
	return resp.AppendInt(nil, n), false
}

func expireGeneric(s *Store, dbi int, argv [][]byte, unitMS int64) ([]byte, bool) {
	n, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil {
		return notInt(), false
	}
	key := string(argv[1])
	if s.lookup(dbi, key) == nil {
		return zero(), false
	}
	at := s.clock() + n*unitMS
	if n <= 0 {
		// Non-positive TTL deletes immediately, like Redis.
		s.deleteKey(dbi, key)
		return one(), true
	}
	s.setExpire(dbi, key, at)
	return one(), true
}

func cmdExpire(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return expireGeneric(s, dbi, argv, 1000)
}

func cmdPExpire(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return expireGeneric(s, dbi, argv, 1)
}

func cmdTTL(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	ms := s.ttlMillis(dbi, string(argv[1]))
	if ms < 0 {
		return resp.AppendInt(nil, ms), false
	}
	return resp.AppendInt(nil, (ms+999)/1000), false
}

func cmdPTTL(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return resp.AppendInt(nil, s.ttlMillis(dbi, string(argv[1]))), false
}

func cmdPersist(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	if s.lookup(dbi, key) == nil {
		return zero(), false
	}
	if _, had := s.shardDB(dbi, key).expires.Get(key); !had {
		return zero(), false
	}
	s.shardDB(dbi, key).expires.Delete(key)
	s.Dirty++
	return one(), true
}

func cmdType(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o := s.lookup(dbi, string(argv[1]))
	if o == nil {
		return resp.AppendSimple(nil, "none"), false
	}
	return resp.AppendSimple(nil, o.Type.String()), false
}

func cmdKeys(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	pattern := string(argv[1])
	now := s.clock()
	var keys []string
	// Cross-shard fan-in: collect from every shard slice in shard order, so
	// the reply is deterministic for a given keyspace layout.
	for _, db := range s.dbs[dbi] {
		db.dict.Each(func(k string, _ any) bool {
			if !db.expired(k, now) && GlobMatch(pattern, k) {
				keys = append(keys, k)
			}
			return true
		})
	}
	out := resp.AppendArrayHeader(nil, len(keys))
	for _, k := range keys {
		out = resp.AppendBulkString(out, k)
	}
	return out, false
}

func cmdRandomKey(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if s.shards == 1 {
		// Legacy fast path, bit-for-bit: no extra RNG draws at one shard.
		db := s.dbs[dbi][0]
		for i := 0; i < 100; i++ {
			k, ok := db.dict.RandomKey()
			if !ok {
				break
			}
			if s.lookup(dbi, k) != nil {
				return resp.AppendBulkString(nil, k), false
			}
		}
		return nullBulk(), false
	}
	// Cross-shard: pick a shard weighted by its key count (so every live key
	// stays roughly uniform), then sample within it. Re-draw on expired hits,
	// bounded like the single-shard loop.
	for i := 0; i < 100; i++ {
		total := s.DBSize(dbi)
		if total == 0 {
			break
		}
		n := s.rnd.Intn(total)
		var db *DB
		for _, sdb := range s.dbs[dbi] {
			if l := sdb.dict.Len(); n < l {
				db = sdb
				break
			} else {
				n -= l
			}
		}
		if db == nil {
			break
		}
		k, ok := db.dict.RandomKey()
		if !ok {
			continue
		}
		if s.lookup(dbi, k) != nil {
			return resp.AppendBulkString(nil, k), false
		}
	}
	return nullBulk(), false
}

func cmdRename(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	src, dst := string(argv[1]), string(argv[2])
	o := s.lookup(dbi, src)
	if o == nil {
		return resp.AppendError(nil, "ERR no such key"), false
	}
	ttl := s.ttlMillis(dbi, src)
	s.deleteKey(dbi, src)
	s.setKey(dbi, dst, o)
	if ttl > 0 {
		s.setExpire(dbi, dst, s.clock()+ttl)
	}
	return ok(), true
}

func cmdDBSize(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return resp.AppendInt(nil, int64(s.DBSize(dbi))), false
}

func cmdFlushDB(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	s.flushDB(dbi)
	s.Dirty++
	return ok(), true
}

func cmdFlushAll(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	s.FlushAll()
	return ok(), true
}
