package store

import (
	"slices"
	"strconv"
	"strings"

	"skv/internal/obj"
	"skv/internal/resp"
)

// lookupString fetches a key that must hold a string; the bool distinguishes
// "missing" (nil, true) from "wrong type" (nil, false).
func lookupString(s *Store, dbi int, key string) (*obj.Object, bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, true
	}
	if o.Type != obj.TString {
		return nil, false
	}
	return o, true
}

func cmdSet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := argv[1]
	var nx, xx bool
	var expireAt int64
	for i := 3; i < len(argv); i++ {
		switch strings.ToUpper(string(argv[i])) {
		case "NX":
			nx = true
		case "XX":
			xx = true
		case "EX", "PX":
			if i+1 >= len(argv) {
				return syntaxErr(), false
			}
			n, err := strconv.ParseInt(string(argv[i+1]), 10, 64)
			if err != nil || n <= 0 {
				return resp.AppendError(nil, "ERR invalid expire time in 'set' command"), false
			}
			if strings.EqualFold(string(argv[i]), "EX") {
				n *= 1000
			}
			expireAt = s.clock() + n
			i++
		default:
			return syntaxErr(), false
		}
	}
	exists := s.lookupBytes(dbi, key) != nil
	if (nx && exists) || (xx && !exists) {
		return nullBulk(), false
	}
	s.setString(dbi, key, argv[2])
	if expireAt > 0 {
		s.setExpire(dbi, string(key), expireAt)
	}
	return ok(), true
}

func cmdSetNX(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if s.lookupBytes(dbi, argv[1]) != nil {
		return zero(), false
	}
	s.setString(dbi, argv[1], argv[2])
	return one(), true
}

func setWithTTL(s *Store, dbi int, argv [][]byte, unitMS int64) ([]byte, bool) {
	n, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil || n <= 0 {
		return resp.AppendError(nil, "ERR invalid expire time"), false
	}
	s.setString(dbi, argv[1], argv[3])
	s.setExpire(dbi, string(argv[1]), s.clock()+n*unitMS)
	return ok(), true
}

func cmdSetEX(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return setWithTTL(s, dbi, argv, 1000)
}

func cmdPSetEX(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return setWithTTL(s, dbi, argv, 1)
}

// appendBulkReply appends one bulk string to dst, growing it at most once.
func appendBulkReply(dst, payload []byte) []byte {
	return resp.AppendBulk(slices.Grow(dst, resp.BulkSize(len(payload))), payload)
}

func cmdGet(s *Store, dbi int, argv [][]byte, dst []byte) ([]byte, bool) {
	o := s.lookupBytes(dbi, argv[1])
	if o == nil {
		return append(dst, nullBulk()...), false
	}
	if o.Type != obj.TString {
		return append(dst, wrongType()...), false
	}
	return appendBulkReply(dst, o.StringBytes()), false
}

func cmdGetSet(s *Store, dbi int, argv [][]byte, dst []byte) ([]byte, bool) {
	o := s.lookupBytes(dbi, argv[1])
	if o != nil && o.Type != obj.TString {
		return append(dst, wrongType()...), false
	}
	if o == nil {
		dst = append(dst, nullBulk()...)
	} else {
		dst = appendBulkReply(dst, o.StringBytes()) // before the set below may rewrite these bytes
	}
	s.setString(dbi, argv[1], argv[2])
	return dst, true
}

func cmdMSet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if len(argv)%2 != 1 {
		return resp.AppendError(nil, "ERR wrong number of arguments for 'mset' command"), false
	}
	for i := 1; i < len(argv); i += 2 {
		s.setString(dbi, argv[i], argv[i+1])
	}
	return ok(), true
}

func cmdMGet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	out := resp.AppendArrayHeader(nil, len(argv)-1)
	for _, k := range argv[1:] {
		o, okType := lookupString(s, dbi, string(k))
		if o == nil || !okType {
			out = resp.AppendNullBulk(out)
		} else {
			out = resp.AppendBulk(out, o.StringBytes())
		}
	}
	return out, false
}

func cmdAppend(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupString(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewString(argv[2])
		s.setKey(dbi, key, o)
		return resp.AppendInt(nil, int64(o.StringLen())), true
	}
	sd := o.MutableSDS()
	sd.Append(argv[2])
	s.Dirty++
	return resp.AppendInt(nil, int64(sd.Len())), true
}

func cmdStrlen(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupString(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(o.StringLen())), false
}

func cmdGetRange(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	start, err1 := strconv.Atoi(string(argv[2]))
	end, err2 := strconv.Atoi(string(argv[3]))
	if err1 != nil || err2 != nil {
		return notInt(), false
	}
	o, okType := lookupString(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendBulk(nil, nil), false
	}
	// Work on the materialized bytes (handles int encoding).
	b := o.StringBytes()
	n := len(b)
	if start < 0 {
		start = n + start
		if start < 0 {
			start = 0
		}
	}
	if end < 0 {
		end = n + end
		if end < 0 {
			end = 0
		}
	}
	if end >= n {
		end = n - 1
	}
	if n == 0 || start > end || start >= n {
		return resp.AppendBulk(nil, nil), false
	}
	return resp.AppendBulk(nil, b[start:end+1]), false
}

func cmdSetRange(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	off, err := strconv.Atoi(string(argv[2]))
	if err != nil || off < 0 {
		return resp.AppendError(nil, "ERR offset is out of range"), false
	}
	key := string(argv[1])
	o, okType := lookupString(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		if len(argv[3]) == 0 {
			return zero(), false
		}
		o = obj.NewString(nil)
		s.setKey(dbi, key, o)
	}
	n := o.MutableSDS().SetRange(off, argv[3])
	s.Dirty++
	return resp.AppendInt(nil, int64(n)), true
}

func incrDecr(s *Store, dbi int, argv [][]byte, delta int64) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupString(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	var cur int64
	if o != nil {
		v, isInt := o.IntValue()
		if !isInt {
			return notInt(), false
		}
		cur = v
	}
	// Overflow check.
	if (delta > 0 && cur > (1<<63-1)-delta) || (delta < 0 && cur < -(1<<63-1)-delta) {
		return resp.AppendError(nil, "ERR increment or decrement would overflow"), false
	}
	cur += delta
	if o != nil {
		o.SetInt(cur)
		s.Dirty++
	} else {
		s.setKey(dbi, key, obj.NewStringFromInt(cur))
	}
	return resp.AppendInt(nil, cur), true
}

func cmdIncr(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return incrDecr(s, dbi, argv, 1)
}

func cmdDecr(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return incrDecr(s, dbi, argv, -1)
}

func cmdIncrBy(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	n, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil {
		return notInt(), false
	}
	return incrDecr(s, dbi, argv, n)
}

func cmdDecrBy(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	n, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil {
		return notInt(), false
	}
	return incrDecr(s, dbi, argv, -n)
}
