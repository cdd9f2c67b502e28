package store

import (
	"strconv"

	"skv/internal/obj"
	"skv/internal/resp"
)

// lookupHash fetches a key that must hold a hash.
func lookupHash(s *Store, dbi int, key string) (*obj.Object, bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, true
	}
	if o.Type != obj.THash {
		return nil, false
	}
	return o, true
}

func cmdHSet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if len(argv)%2 != 0 {
		return resp.AppendError(nil, "ERR wrong number of arguments for 'hset' command"), false
	}
	key := string(argv[1])
	o, okType := lookupHash(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewHash(s.seed())
		s.setKey(dbi, key, o)
	}
	created := int64(0)
	for i := 2; i < len(argv); i += 2 {
		if o.HashSet(string(argv[i]), append([]byte(nil), argv[i+1]...)) {
			created++
		}
	}
	s.Dirty++
	return resp.AppendInt(nil, created), true
}

func cmdHGet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	v, found := o.HashGet(string(argv[2]))
	if !found {
		return nullBulk(), false
	}
	return resp.AppendBulk(nil, v), false
}

func cmdHMGet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	out := resp.AppendArrayHeader(nil, len(argv)-2)
	for _, f := range argv[2:] {
		if o == nil {
			out = resp.AppendNullBulk(out)
			continue
		}
		if v, found := o.HashGet(string(f)); found {
			out = resp.AppendBulk(out, v)
		} else {
			out = resp.AppendNullBulk(out)
		}
	}
	return out, false
}

func cmdHDel(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupHash(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	n := int64(0)
	for _, f := range argv[2:] {
		if o.HashDel(string(f)) {
			n++
		}
	}
	if o.HashLen() == 0 {
		s.deleteKey(dbi, key)
	}
	if n > 0 {
		s.Dirty++
	}
	return resp.AppendInt(nil, n), n > 0
}

func cmdHExists(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	if _, found := o.HashGet(string(argv[2])); found {
		return one(), false
	}
	return zero(), false
}

func cmdHLen(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(o.HashLen())), false
}

func hashCollect(o *obj.Object, fields, values bool) [][]byte {
	var out [][]byte
	o.HashEach(func(f string, v []byte) bool {
		if fields {
			out = append(out, []byte(f))
		}
		if values {
			out = append(out, v)
		}
		return true
	})
	return out
}

func cmdHGetAll(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	items := hashCollect(o, true, true)
	out := resp.AppendArrayHeader(nil, len(items))
	for _, it := range items {
		out = resp.AppendBulk(out, it)
	}
	return out, false
}

func cmdHKeys(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	items := hashCollect(o, true, false)
	out := resp.AppendArrayHeader(nil, len(items))
	for _, it := range items {
		out = resp.AppendBulk(out, it)
	}
	return out, false
}

func cmdHVals(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupHash(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	items := hashCollect(o, false, true)
	out := resp.AppendArrayHeader(nil, len(items))
	for _, it := range items {
		out = resp.AppendBulk(out, it)
	}
	return out, false
}

func cmdHIncrBy(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	delta, err := strconv.ParseInt(string(argv[3]), 10, 64)
	if err != nil {
		return notInt(), false
	}
	key := string(argv[1])
	o, okType := lookupHash(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewHash(s.seed())
		s.setKey(dbi, key, o)
	}
	field := string(argv[2])
	var cur int64
	if v, found := o.HashGet(field); found {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return resp.AppendError(nil, "ERR hash value is not an integer"), false
		}
		cur = n
	}
	cur += delta
	o.HashSet(field, strconv.AppendInt(nil, cur, 10))
	s.Dirty++
	return resp.AppendInt(nil, cur), true
}
