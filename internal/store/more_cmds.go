package store

import (
	"strconv"
	"strings"

	"skv/internal/obj"
	"skv/internal/resp"
)

// expireAtGeneric implements EXPIREAT/PEXPIREAT: absolute deadlines.
func expireAtGeneric(s *Store, dbi int, argv [][]byte, unitMS int64) ([]byte, bool) {
	at, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil {
		return notInt(), false
	}
	key := string(argv[1])
	if s.lookup(dbi, key) == nil {
		return zero(), false
	}
	atMS := at * unitMS
	if atMS <= s.clock() {
		s.deleteKey(dbi, key)
		return one(), true
	}
	s.setExpire(dbi, key, atMS)
	return one(), true
}

func cmdExpireAt(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return expireAtGeneric(s, dbi, argv, 1000)
}

func cmdPExpireAt(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return expireAtGeneric(s, dbi, argv, 1)
}

// cmdGetDel returns the value and deletes the key (GETDEL, Redis 6.2).
func cmdGetDel(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupString(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	reply := resp.AppendBulk(nil, o.StringBytes())
	s.deleteKey(dbi, string(argv[1]))
	return reply, true
}

// cmdIncrByFloat adds a float to a string value (INCRBYFLOAT).
func cmdIncrByFloat(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	delta, okF := parseScore(argv[2])
	if !okF {
		return notFloat(), false
	}
	key := string(argv[1])
	o, okType := lookupString(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	var cur float64
	if o != nil {
		f, err := strconv.ParseFloat(string(o.StringBytes()), 64)
		if err != nil {
			return notFloat(), false
		}
		cur = f
	}
	cur += delta
	formatted := []byte(obj.FormatScore(cur))
	s.setKey(dbi, key, obj.NewString(formatted))
	return resp.AppendBulk(nil, formatted), true
}

// cmdZCount counts sorted-set members with score in [min, max].
func cmdZCount(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	min, ok1 := parseScore(argv[2])
	max, ok2 := parseScore(argv[3])
	if !ok1 || !ok2 {
		return resp.AppendError(nil, "ERR min or max is not a float"), false
	}
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(len(o.ZRangeByScore(min, max)))), false
}

// cmdZRevRank reports the 0-based descending rank.
func cmdZRevRank(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	r, found := o.ZRank(string(argv[2]))
	if !found {
		return nullBulk(), false
	}
	return resp.AppendInt(nil, int64(o.ZLen()-1-r)), false
}

// cmdLTrim trims a list to the inclusive index window.
func cmdLTrim(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	start, err1 := strconv.Atoi(string(argv[2]))
	stop, err2 := strconv.Atoi(string(argv[3]))
	if err1 != nil || err2 != nil {
		return notInt(), false
	}
	key := string(argv[1])
	o, okType := lookupList(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return ok(), false
	}
	l := o.List()
	n := l.Len()
	if start < 0 {
		start = n + start
		if start < 0 {
			start = 0
		}
	}
	if stop < 0 {
		stop = n + stop
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || start >= n {
		// Empty result: drop the key entirely.
		s.deleteKey(dbi, key)
		return ok(), true
	}
	for i := 0; i < start; i++ {
		l.PopHead()
	}
	for l.Len() > stop-start+1 {
		l.PopTail()
	}
	s.Dirty++
	return ok(), true
}

// cmdSMove atomically moves a member between sets.
func cmdSMove(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	src, okType := lookupSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	dst, okType := lookupSet(s, dbi, string(argv[2]))
	if !okType {
		return wrongType(), false
	}
	member := string(argv[3])
	if src == nil || !src.SetContains(member) {
		return zero(), false
	}
	src.SetRemove(member)
	if src.SetLen() == 0 {
		s.deleteKey(dbi, string(argv[1]))
	}
	if dst == nil {
		dst = obj.NewSet(s.seed())
		s.setKey(dbi, string(argv[2]), dst)
	}
	dst.SetAdd(member)
	s.Dirty++
	return one(), true
}

// cmdHSetNX sets a hash field only if absent.
func cmdHSetNX(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupHash(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o != nil {
		if _, exists := o.HashGet(string(argv[2])); exists {
			return zero(), false
		}
	}
	if o == nil {
		o = obj.NewHash(s.seed())
		s.setKey(dbi, key, o)
	}
	o.HashSet(string(argv[2]), append([]byte(nil), argv[3]...))
	s.Dirty++
	return one(), true
}

// cmdSInterStore computes an intersection into a destination key.
func cmdSInterStore(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	sets, errReply := setOp(s, dbi, argv[2:])
	if errReply != nil {
		return errReply, false
	}
	var members []string
	for m := range sets[0] {
		in := true
		for _, other := range sets[1:] {
			if !other[m] {
				in = false
				break
			}
		}
		if in {
			members = append(members, m)
		}
	}
	dstKey := string(argv[1])
	s.deleteKey(dbi, dstKey)
	if len(members) == 0 {
		return zero(), true
	}
	dst := obj.NewSet(s.seed())
	for _, m := range members {
		dst.SetAdd(m)
	}
	s.setKey(dbi, dstKey, dst)
	return resp.AppendInt(nil, int64(len(members))), true
}

func init() {
	register("expireat", cmdExpireAt, 3, true, 1)
	register("pexpireat", cmdPExpireAt, 3, true, 1)
	register("getdel", cmdGetDel, 2, true, 1)
	register("incrbyfloat", cmdIncrByFloat, 3, true, 1)
	register("zcount", cmdZCount, 4, false, 1)
	register("zrevrank", cmdZRevRank, 3, false, 1)
	register("ltrim", cmdLTrim, 4, true, 1)
	register("smove", cmdSMove, 4, true, 1)
	register("hsetnx", cmdHSetNX, 4, true, 1)
	register("sinterstore", cmdSInterStore, -3, true, 1)
	register("object", cmdObject, 3, false, 2) // OBJECT <subcommand> <key>
}

// cmdObject implements OBJECT ENCODING|REFCOUNT (debug introspection).
func cmdObject(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	sub := strings.ToLower(string(argv[1]))
	o := s.lookup(dbi, string(argv[2]))
	if o == nil {
		return resp.AppendError(nil, "ERR no such key"), false
	}
	switch sub {
	case "encoding":
		return resp.AppendBulkString(nil, o.Enc.String()), false
	case "refcount":
		return one(), false
	}
	return syntaxErr(), false
}
